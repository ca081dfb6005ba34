package assembly_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"revelation/internal/assembly"
	"revelation/internal/buffer"
	"revelation/internal/disk"
	"revelation/internal/gen"
	"revelation/internal/leakcheck"
	"revelation/internal/volcano"
)

// failingInput is an input whose Open fails.
type failingInput struct{ volcano.Iterator }

var errInputDown = errors.New("input: injected open fault")

func (failingInput) Open() error { return errInputDown }

// TestLaneWorkersStopOnEveryExit: the goroutines that overlap a batch's
// reads belong to the query. However it ends — drained, closed half
// way, failed on a device fault, cancelled, refused at Open — none of
// them is left behind, and neither is a pin.
func TestLaneWorkersStopOnEveryExit(t *testing.T) {
	db, striped := buildStriped(t, 120, 3)
	pool := db.Pool
	newOp := func(input volcano.Iterator, reserve int) *assembly.Operator {
		if err := pool.EvictAll(); err != nil {
			t.Fatal(err)
		}
		return assembly.New(input, db.Store, db.Template, assembly.Options{
			Window:          10,
			CustomScheduler: assembly.NewMultiElevator(3, striped.DeviceOf),
			ShardPrefetch:   true,
			ReserveFrames:   reserve,
		})
	}
	some := func(op *assembly.Operator, n int) error {
		for i := 0; i < n; i++ {
			if _, err := op.Next(); err != nil {
				return err
			}
		}
		return nil
	}
	exits := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"drained", func(t *testing.T) {
			if out := drainAssembly(t, newOp(rootsSource(db.Roots), 0)); len(out) != len(db.Roots) {
				t.Fatalf("assembled %d of %d", len(out), len(db.Roots))
			}
		}},
		{"closed half way, twice", func(t *testing.T) {
			op := newOp(rootsSource(db.Roots), 0)
			if err := op.Open(); err != nil {
				t.Fatal(err)
			}
			if err := some(op, 20); err != nil {
				t.Fatal(err)
			}
			if err := op.Close(); err != nil {
				t.Fatal(err)
			}
			if err := op.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
		}},
		{"device fault", func(t *testing.T) {
			op := newOp(rootsSource(db.Roots), 0)
			if err := op.Open(); err != nil {
				t.Fatal(err)
			}
			if err := some(op, 5); err != nil {
				t.Fatal(err)
			}
			dev := striped.Devices()[1].(*disk.Sim)
			dev.SetFault(func(disk.PageID, bool) error { return fmt.Errorf("%w: injected", disk.ErrPermanent) })
			defer dev.SetFault(nil)
			if err := some(op, len(db.Roots)); !errors.Is(err, disk.ErrPermanent) {
				t.Fatalf("Next with a dead device: %v", err)
			}
			op.Close()
		}},
		{"cancelled", func(t *testing.T) {
			op := newOp(rootsSource(db.Roots), 0)
			ctx, cancel := context.WithCancel(context.Background())
			op.BindContext(ctx)
			if err := op.Open(); err != nil {
				t.Fatal(err)
			}
			if err := some(op, 5); err != nil {
				t.Fatal(err)
			}
			cancel()
			if err := some(op, len(db.Roots)); !errors.Is(err, context.Canceled) {
				t.Fatalf("Next after cancel: %v", err)
			}
			op.Close()
		}},
		{"input refuses to open", func(t *testing.T) {
			if err := newOp(failingInput{rootsSource(db.Roots)}, 0).Open(); !errors.Is(err, errInputDown) {
				t.Fatalf("Open: %v", err)
			}
		}},
		{"admission refused", func(t *testing.T) {
			if err := newOp(rootsSource(db.Roots), pool.Size()+1).Open(); !errors.Is(err, buffer.ErrAdmission) {
				t.Fatalf("Open: %v", err)
			}
		}},
	}
	for _, e := range exits {
		t.Run(e.name, func(t *testing.T) {
			before := leakcheck.Snapshot()
			e.run(t)
			leakcheck.Check(t, before)
			if n := pool.PinnedFrames(); n != 0 {
				t.Errorf("%d frames left pinned", n)
			}
		})
	}
}

// TestConcurrentQueriesShareOnePool: eight queries at once on one pool
// of 64 frames — lane queries and plain elevator ones, each taking and
// returning elevator leaves and the pool's lane loads — assemble what
// one query alone does, field for field, and leave no pin and no
// goroutine behind.
func TestConcurrentQueriesShareOnePool(t *testing.T) {
	db, err := gen.Build(onStripes(t, gen.Config{NumComplexObjects: 150, Clustering: gen.Unclustered, Seed: 67, BufferPages: 64}))
	if err != nil {
		t.Fatal(err)
	}
	query := func(lanes bool) ([]string, error) {
		opts := assembly.Options{Window: 20, Scheduler: assembly.Elevator, ShardPrefetch: lanes}
		items, err := volcano.Drain(nil, assembly.New(rootsSource(db.Roots), db.Store, db.Template, queryOpts(db, opts)))
		var out []string
		for _, it := range items {
			out = append(out, renderFields(it.(*assembly.Instance)))
		}
		slices.Sort(out)
		return out, err
	}
	want, err := query(false)
	if err != nil || len(want) != len(db.Roots) {
		t.Fatalf("assembled %d of %d alone: %v", len(want), len(db.Roots), err)
	}
	before := leakcheck.Snapshot()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(lanes bool) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				got, err := query(lanes)
				if err != nil || !slices.Equal(got, want) {
					t.Errorf("lanes %v, round %d: %d objects differ from one query's alone: %v", lanes, round, len(got), err)
					return
				}
			}
		}(i%2 == 0)
	}
	wg.Wait()
	leakcheck.Check(t, before)
	if n := db.Pool.PinnedFrames(); n != 0 {
		t.Errorf("%d frames left pinned", n)
	}
}

// renderFields prints an assembled tree with every component's fields.
func renderFields(in *assembly.Instance) string {
	out := fmt.Sprintf("%d%v%v(", uint64(in.OID()), in.Object.Ints, in.Object.Refs)
	for _, c := range in.Children {
		if c == nil {
			out += "-,"
			continue
		}
		out += renderFields(c) + ","
	}
	return out + ")"
}
