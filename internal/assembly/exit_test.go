package assembly

// Every exit of a query hands back what its Open took: the query span,
// the pins, the admission quota, the lane workers, the elevator's
// leaves and the lane loads' hold on the query's context.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"revelation/internal/buffer"
	"revelation/internal/disk"
	"revelation/internal/leakcheck"
	"revelation/internal/qtrace"
	"revelation/internal/volcano"
)

// openSpans lists the spans of tr other than its root that were never
// ended.
func openSpans(tr *qtrace.Trace) []string {
	var open []string
	for _, sp := range tr.Spans()[1:] {
		if reflect.ValueOf(sp).Elem().FieldByName("endNS").Int() == 0 {
			open = append(open, sp.Name())
		}
	}
	return open
}

// TestOpenRefusalEndsItsSpan: a traced query that Open refuses — the
// pool refuses its frame quota — leaves no span open in its trace.
func TestOpenRefusalEndsItsSpan(t *testing.T) {
	w := genWorld(t, rand.New(rand.NewSource(1009)))
	pool := w.store.File.Pool()
	col := qtrace.NewCollector(4)
	tr, root := col.Begin("query")
	op := New(volcano.FromOIDs(w.roots), w.store, w.tmpl, Options{Window: 4, ReserveFrames: pool.Size() + 1})
	op.BindContext(qtrace.With(context.Background(), root))
	if err := op.Open(); !errors.Is(err, buffer.ErrAdmission) {
		t.Fatalf("admission: Open = %v, want a refusal", err)
	}
	if open := openSpans(tr); len(open) > 0 {
		t.Errorf("admission: Open refused and left spans %v open", open)
	}
	if n := pool.ReservedFrames(); n != 0 {
		t.Errorf("admission: %d frames still reserved", n)
	}
}

// refusingInput is an input whose Open fails.
type refusingInput struct{ volcano.Iterator }

var errRefused = errors.New("input: injected open fault")

func (refusingInput) Open() error { return errRefused }

// checkHandedBack fails the test unless the query traced in tr handed
// back all it took: no span of the trace left open, no frame pinned or
// reserved, no goroutine left beyond the given count, every leaf on the
// elevators' free list zeroed, held once and within the list's cap, and
// no query's context kept by the pool's lane loads.
func checkHandedBack(t *testing.T, exit string, pool *buffer.Pool, tr *qtrace.Trace, goroutines int) {
	t.Helper()
	if open := openSpans(tr); len(open) > 0 {
		t.Errorf("%s: spans %v left open", exit, open)
	}
	if n := pool.PinnedFrames(); n != 0 {
		t.Errorf("%s: %d frames left pinned", exit, n)
	}
	if n := pool.ReservedFrames(); n != 0 {
		t.Errorf("%s: %d frames left reserved", exit, n)
	}
	leakcheck.Check(t, goroutines)
	freeLeaves.Lock()
	held := make(map[*pendingLeaf]bool, len(freeLeaves.list))
	for _, leaf := range freeLeaves.list {
		if held[leaf] || *leaf != (pendingLeaf{}) {
			t.Errorf("%s: a leaf on the free list is held twice or not zeroed", exit)
			break
		}
		held[leaf] = true
	}
	if n := len(freeLeaves.list); n > maxFreeLeaves {
		t.Errorf("%s: %d leaves on the free list, cap %d", exit, n, maxFreeLeaves)
	}
	freeLeaves.Unlock()
	loads := reflect.ValueOf(pool).Elem().FieldByName("loads")
	for i := 0; i < loads.Len(); i++ {
		if !loads.Index(i).FieldByName("ctx").IsNil() {
			t.Errorf("%s: the pool's lane load %d keeps a query's context", exit, i)
		}
	}
}

// TestEveryExitHandsBack sweeps the ways a small traced query ends —
// each refusal of Open, a failing input, the context cancelled before
// the first Next, a permanent fault at the k-th device read for every k
// under each fault policy, with and without lanes, and Close twice —
// and checks after each that the query handed back all it took.
func TestEveryExitHandsBack(t *testing.T) {
	store, tmpl, roots := scatteredStore(t, 48)
	pool := store.File.Pool()
	sim := pool.Device().(*disk.Sim)
	// Each exit runs under four set-ups: the plain elevator or lanes,
	// window pages pinned or not.
	type setup struct {
		name        string
		lanes, pins bool
	}
	var setups []setup
	for _, lanes := range []bool{false, true} {
		for _, pins := range []bool{false, true} {
			setups = append(setups, setup{fmt.Sprintf("lanes %v, pins %v", lanes, pins), lanes, pins})
		}
	}
	options := func(su setup, policy FaultPolicy) Options {
		o := Options{Window: 4, ReserveFrames: 16, PinWindowPages: su.pins, FaultPolicy: policy}
		if su.lanes {
			o.CustomScheduler = NewShardElevator(2, func(p disk.PageID) int { return int(p) })
		}
		return o
	}
	// run opens a traced query with the given options over input, lets
	// drive take it to its exit, closes it and checks what is left.
	run := func(exit string, input volcano.Iterator, opts Options, drive func(op *Operator, cancel func()) error) {
		t.Helper()
		if err := pool.EvictAll(); err != nil {
			t.Fatalf("%s: %v", exit, err)
		}
		goroutines := leakcheck.Snapshot()
		col := qtrace.NewCollector(4)
		tr, root := col.Begin("query")
		ctx, cancel := context.WithCancel(qtrace.With(context.Background(), root))
		defer cancel()
		op := New(input, store, tmpl, opts)
		op.BindContext(ctx)
		if err := drive(op, cancel); err != nil {
			t.Fatalf("%s: %v", exit, err)
		}
		checkHandedBack(t, exit, pool, tr, goroutines)
	}
	drain := func(op *Operator) (int, error) {
		n := 0
		for {
			_, err := op.Next()
			if err != nil {
				if errors.Is(err, volcano.Done) {
					err = nil
				}
				return n, err
			}
			n++
		}
	}
	// Refusals: Open fails, and nobody calls Close.
	refused := func(want error) func(op *Operator, _ func()) error {
		return func(op *Operator, _ func()) error {
			if err := op.Open(); err == nil || (want != nil && !errors.Is(err, want)) {
				return fmt.Errorf("Open = %v, want a refusal", err)
			}
			return nil
		}
	}
	run("admission refused", volcano.FromOIDs(roots), Options{Window: 4, ReserveFrames: pool.Size() + 1}, refused(buffer.ErrAdmission))
	for _, su := range setups {
		opts := options(su, FailFast)
		run(su.name+": input refuses", refusingInput{volcano.FromOIDs(roots)}, opts, refused(errRefused))
		run(su.name+": cancelled before Next", volcano.FromOIDs(roots), opts, func(op *Operator, cancel func()) error {
			if err := op.Open(); err != nil {
				return err
			}
			cancel()
			if _, err := op.Next(); !errors.Is(err, context.Canceled) {
				return fmt.Errorf("Next after cancel = %v", err)
			}
			return op.Close()
		})
		run(su.name+": closed twice", volcano.FromOIDs(roots), opts, func(op *Operator, _ func()) error {
			if err := op.Open(); err != nil {
				return err
			}
			if _, err := drain(op); err != nil {
				return err
			}
			if err := op.Close(); err != nil {
				return err
			}
			return op.Close()
		})
	}
	// A permanent fault at the k-th device read: that read fails, and so
	// does every later read of its page.
	var reads int
	var dead map[disk.PageID]bool
	faultAt := func(k int) {
		reads, dead = 0, map[disk.PageID]bool{}
		sim.SetFault(func(p disk.PageID, write bool) error {
			if write {
				return nil
			}
			if reads++; reads == k {
				dead[p] = true
			}
			if dead[p] {
				return fmt.Errorf("%w: page %d", disk.ErrPermanent, p)
			}
			return nil
		})
	}
	defer sim.SetFault(nil)
	faultAt(0)
	run("no fault", volcano.FromOIDs(roots), Options{Window: 4}, func(op *Operator, _ func()) error {
		op.Open()
		_, err := drain(op)
		return errors.Join(err, op.Close())
	})
	clean := reads
	if clean < 8 {
		t.Fatalf("a clean query reads %d pages; the sweep needs more", clean)
	}
	for _, policy := range []FaultPolicy{FailFast, SkipObject, RetryFaults} {
		for _, su := range setups {
			for k := 1; k <= clean; k++ {
				faultAt(k)
				run(fmt.Sprintf("%s, policy %d: fault at read %d", su.name, policy, k), volcano.FromOIDs(roots), options(su, policy), func(op *Operator, _ func()) error {
					if err := op.Open(); err != nil {
						return err
					}
					_, err := drain(op)
					if policy == FailFast && len(dead) > 0 && !errors.Is(err, disk.ErrPermanent) {
						return fmt.Errorf("a fail-fast query ended with %v", err)
					}
					op.Close()
					return nil
				})
			}
		}
	}
}
