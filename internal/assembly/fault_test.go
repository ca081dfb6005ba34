package assembly_test

// Chaos tests for fault-tolerant assembly: the operator runs over a
// disk.Faulty-wrapped device while transient and permanent faults are
// injected, and its output is verified against the fault-free oracle
// assembly of the same dataset.

import (
	"errors"
	"fmt"
	"testing"

	"revelation/internal/assembly"
	"revelation/internal/buffer"
	"revelation/internal/disk"
	"revelation/internal/gen"
	"revelation/internal/heap"
	"revelation/internal/object"
	"revelation/internal/volcano"
)

// faultWorld is a generated database over a Faulty device, plus the
// fault-free oracle: every object pre-read and every complex object's
// expected rendering captured before the injector is armed.
type faultWorld struct {
	db     *gen.Database
	dev    *disk.Faulty
	objs   map[object.OID]*object.Object
	oracle map[object.OID]string // root OID -> rendered assembly
}

func buildFaultWorld(t *testing.T, nObjects int, seed int64) *faultWorld {
	t.Helper()
	fd := disk.NewFaulty(disk.New(0), disk.FaultConfig{})
	db := buildDB(t, gen.Config{
		NumComplexObjects: nObjects,
		Clustering:        gen.Unclustered,
		Seed:              seed,
		Device:            fd,
	})
	w := &faultWorld{
		db:     db,
		dev:    fd,
		objs:   map[object.OID]*object.Object{},
		oracle: map[object.OID]string{},
	}
	// Capture the oracle while the device is still healthy.
	var load func(oid object.OID, node *assembly.Template)
	load = func(oid object.OID, node *assembly.Template) {
		o, err := db.Store.Get(oid)
		if err != nil {
			t.Fatalf("oracle load %v: %v", oid, err)
		}
		w.objs[oid] = o
		for _, c := range node.Children {
			if ref := o.Refs[c.RefField]; !ref.IsNil() {
				load(ref, c)
			}
		}
	}
	for _, root := range db.Roots {
		load(root, db.Template)
		w.oracle[root] = w.renderOracle(root, db.Template)
	}
	// Go cold so the fault run reads from the device again.
	if err := db.Pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	return w
}

// renderOracle renders the reference assembly from the pre-read
// object graph (no I/O).
func (w *faultWorld) renderOracle(oid object.OID, node *assembly.Template) string {
	o := w.objs[oid]
	out := fmt.Sprintf("%d(", uint64(oid))
	for _, c := range node.Children {
		ref := o.Refs[c.RefField]
		if ref.IsNil() {
			out += "-,"
			continue
		}
		out += w.renderOracle(ref, c) + ","
	}
	return out + ")"
}

// renderInstance renders an assembled instance in the oracle's format.
func renderInstance(in *assembly.Instance) string {
	out := fmt.Sprintf("%d(", uint64(in.OID()))
	for _, c := range in.Children {
		if c == nil {
			out += "-,"
			continue
		}
		out += renderInstance(c) + ","
	}
	return out + ")"
}

// poisonedRoots computes which complex objects touch a permanently
// faulty page — the set the operator is allowed to lose.
func (w *faultWorld) poisonedRoots(t *testing.T) map[object.OID]bool {
	t.Helper()
	poisoned := map[object.OID]bool{}
	var visit func(oid object.OID, node *assembly.Template) bool
	visit = func(oid object.OID, node *assembly.Template) bool {
		rid, ok, err := w.db.Store.WhereIs(oid)
		if err != nil || !ok {
			t.Fatalf("locate %v: ok=%v err=%v", oid, ok, err)
		}
		bad := w.dev.PermanentlyFaulty(rid.Page)
		o := w.objs[oid]
		for _, c := range node.Children {
			if ref := o.Refs[c.RefField]; !ref.IsNil() {
				bad = visit(ref, c) || bad
			}
		}
		return bad
	}
	for _, root := range w.db.Roots {
		if visit(root, w.db.Template) {
			poisoned[root] = true
		}
	}
	return poisoned
}

// runFaulted drains one assembly pass over the (armed) faulty world
// and returns the rendered results by root OID plus operator stats.
func (w *faultWorld) runFaulted(t *testing.T, opts assembly.Options) (map[object.OID]string, assembly.Stats) {
	t.Helper()
	if err := w.db.Pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	op := assembly.New(rootsSource(w.db.Roots), w.db.Store, w.db.Template, opts)
	items, err := volcano.Drain(op)
	if err != nil {
		t.Fatalf("faulted assembly (%v): %v", opts.FaultPolicy, err)
	}
	got := map[object.OID]string{}
	for _, it := range items {
		inst := it.(*assembly.Instance)
		got[inst.OID()] = renderInstance(inst)
	}
	return got, op.Stats()
}

// TestChaosTransientRetryZeroLoss is the acceptance chaos test: a 5%
// transient fault rate, swept across schedulers and window sizes, must
// lose zero complex objects under the Retry policy and match the
// fault-free oracle bit for bit.
func TestChaosTransientRetryZeroLoss(t *testing.T) {
	w := buildFaultWorld(t, 120, 77)
	cfg := disk.FaultConfig{Seed: 1234, TransientRate: 0.05, TransientFailures: 2}
	totalRetries := 0
	for _, kind := range []assembly.SchedulerKind{assembly.DepthFirst, assembly.BreadthFirst, assembly.Elevator} {
		for _, window := range []int{1, 16} {
			// Re-arm so every configuration faces fresh fault budgets.
			w.dev.SetConfig(cfg)
			got, st := w.runFaulted(t, assembly.Options{
				Window:      window,
				Scheduler:   kind,
				FaultPolicy: assembly.RetryFaults,
			})
			if len(got) != len(w.oracle) {
				t.Fatalf("%v/w%d: assembled %d of %d complex objects (skipped %d)",
					kind, window, len(got), len(w.oracle), st.Skipped)
			}
			for root, want := range w.oracle {
				if got[root] != want {
					t.Fatalf("%v/w%d: root %v\n got %s\nwant %s", kind, window, root, got[root], want)
				}
			}
			if st.Skipped != 0 {
				t.Errorf("%v/w%d: skipped %d under Retry policy", kind, window, st.Skipped)
			}
			totalRetries += st.FaultRetries
			if fs := w.dev.FaultStats(); fs.Transient == 0 {
				t.Fatalf("%v/w%d: injector never fired — chaos test is vacuous", kind, window)
			}
		}
	}
	if totalRetries == 0 {
		t.Error("no operator-level fault retries across the whole sweep")
	}
}

// TestChaosPermanentSkipObject injects permanent page faults under the
// SkipObject policy: only complex objects whose references hit a
// poisoned page may be lost, everything else must match the oracle,
// and quarantined objects must leave no pins behind.
func TestChaosPermanentSkipObject(t *testing.T) {
	w := buildFaultWorld(t, 120, 78)
	w.dev.SetConfig(disk.FaultConfig{Seed: 99, PermanentRate: 0.02})
	poisoned := w.poisonedRoots(t)
	if len(poisoned) == 0 || len(poisoned) == len(w.oracle) {
		t.Fatalf("degenerate poison set: %d of %d (tune seed/rate)", len(poisoned), len(w.oracle))
	}
	for _, kind := range []assembly.SchedulerKind{assembly.DepthFirst, assembly.Elevator} {
		w.dev.SetConfig(disk.FaultConfig{Seed: 99, PermanentRate: 0.02})
		got, st := w.runFaulted(t, assembly.Options{
			Window:         12,
			Scheduler:      kind,
			FaultPolicy:    assembly.SkipObject,
			PinWindowPages: true,
		})
		for root, want := range w.oracle {
			switch {
			case poisoned[root]:
				if _, ok := got[root]; ok {
					t.Errorf("%v: poisoned root %v was assembled", kind, root)
				}
			default:
				if got[root] != want {
					t.Errorf("%v: healthy root %v\n got %s\nwant %s", kind, root, got[root], want)
				}
			}
		}
		if st.Skipped != len(poisoned) {
			t.Errorf("%v: Skipped = %d, want %d", kind, st.Skipped, len(poisoned))
		}
		if got, want := len(got), len(w.oracle)-len(poisoned); got != want {
			t.Errorf("%v: assembled %d, want %d", kind, got, want)
		}
		if n := w.db.Pool.PinnedFrames(); n != 0 {
			t.Errorf("%v: %d pinned frames after quarantined drain", kind, n)
		}
	}
}

// TestChaosMixedFaultsRetryPolicy mixes transient and permanent
// faults under the Retry policy: transients are retried into success,
// permanents quarantine exactly the poisoned objects.
func TestChaosMixedFaultsRetryPolicy(t *testing.T) {
	w := buildFaultWorld(t, 100, 79)
	cfg := disk.FaultConfig{Seed: 4242, TransientRate: 0.05, TransientFailures: 1, PermanentRate: 0.03}
	w.dev.SetConfig(cfg)
	poisoned := w.poisonedRoots(t)
	if len(poisoned) == 0 {
		t.Fatalf("no poisoned roots — permanent leg is vacuous (tune seed/rate)")
	}
	got, st := w.runFaulted(t, assembly.Options{
		Window:      10,
		Scheduler:   assembly.BreadthFirst,
		FaultPolicy: assembly.RetryFaults,
	})
	if want := len(w.oracle) - len(poisoned); len(got) != want {
		t.Fatalf("assembled %d, want %d (skipped %d)", len(got), want, st.Skipped)
	}
	for root, want := range w.oracle {
		if !poisoned[root] && got[root] != want {
			t.Errorf("healthy root %v diverged", root)
		}
	}
	if st.Skipped != len(poisoned) {
		t.Errorf("Skipped = %d, want %d", st.Skipped, len(poisoned))
	}
	if st.FaultRetries == 0 {
		t.Error("transient leg never retried")
	}
}

// TestChaosFailFastSurfacesFault pins the default policy: a permanent
// fault must abort the operator with a classified error.
func TestChaosFailFastSurfacesFault(t *testing.T) {
	w := buildFaultWorld(t, 60, 80)
	w.dev.SetConfig(disk.FaultConfig{Seed: 99, PermanentRate: 0.05})
	if len(w.poisonedRoots(t)) == 0 {
		t.Fatal("no poisoned roots — nothing to fail on")
	}
	if err := w.db.Pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	op := assembly.New(rootsSource(w.db.Roots), w.db.Store, w.db.Template, assembly.Options{
		Window:    8,
		Scheduler: assembly.Elevator,
	})
	_, err := volcano.Drain(op)
	if !errors.Is(err, disk.ErrPermanent) {
		t.Fatalf("fail-fast drain err = %v, want ErrPermanent", err)
	}
}

// TestWindowShrinksUnderBufferPressure drives the graceful-degradation
// path: a pool too small for the configured window (squeezed further
// by external pins) must shrink the effective window — stalling
// admission until pins drain — instead of failing with ErrNoFrames,
// and still assemble every complex object.
func TestWindowShrinksUnderBufferPressure(t *testing.T) {
	d := disk.New(0)
	pool := buffer.New(d, 14)
	f, err := heap.Create(pool, 18)
	if err != nil {
		t.Fatal(err)
	}
	cat := object.NewCatalog()
	cls := cat.MustDefine(&object.Class{Name: "N", NumInts: 1, NumRefs: 2})
	store := object.NewStore(f, object.NewMapLocator(), cat)

	// Six complex objects of three components each, every component on
	// its own page, so each in-flight object pins three distinct pages.
	const nRoots = 6
	var roots []object.OID
	next := object.OID(1)
	put := func(o *object.Object, pageIdx int) {
		if _, err := store.PutAt(o, pageIdx); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nRoots; i++ {
		a, b, r := next, next+1, next+2
		next += 3
		put(&object.Object{OID: a, Class: cls.ID, Ints: []int32{0}, Refs: make([]object.OID, 2)}, 3*i+1)
		put(&object.Object{OID: b, Class: cls.ID, Ints: []int32{0}, Refs: make([]object.OID, 2)}, 3*i+2)
		put(&object.Object{OID: r, Class: cls.ID, Ints: []int32{0}, Refs: []object.OID{a, b}}, 3*i)
		roots = append(roots, r)
	}
	tmpl := &assembly.Template{
		Name: "root", Class: cls.ID, RefField: -1,
		Children: []*assembly.Template{
			{Name: "a", Class: cls.ID, RefField: 0, Required: true},
			{Name: "b", Class: cls.ID, RefField: 1, Required: true},
		},
	}
	if err := pool.EvictAll(); err != nil {
		t.Fatal(err)
	}

	// Squeeze the pool: eleven frames pinned by pages outside the heap
	// extent (a co-tenant of the buffer), leaving three for assembly —
	// fewer than one fully pinned object, so the admission gate's
	// budget is wrong and the window must shed pins to make progress.
	padFirst, err := d.Allocate(11)
	if err != nil {
		t.Fatal(err)
	}
	var pads []*buffer.Frame
	for i := 0; i < 11; i++ {
		fr, err := pool.Fix(padFirst + disk.PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		pads = append(pads, fr)
	}

	op := assembly.New(rootsSource(roots), store, tmpl, assembly.Options{
		Window:         4,
		Scheduler:      assembly.BreadthFirst,
		PinWindowPages: true,
	})
	items, err := volcano.Drain(op)
	if err != nil {
		t.Fatalf("assembly under buffer pressure: %v", err)
	}
	if len(items) != nRoots {
		t.Fatalf("assembled %d of %d", len(items), nRoots)
	}
	for _, it := range items {
		inst := it.(*assembly.Instance)
		o := inst.Object
		if inst.Children[0].OID() != o.Refs[0] || inst.Children[1].OID() != o.Refs[1] {
			t.Fatalf("root %v assembled wrong children", inst.OID())
		}
	}
	st := op.Stats()
	if st.WindowStalls == 0 {
		t.Error("no window stalls recorded — pressure path not exercised")
	}
	if st.Skipped != 0 {
		t.Errorf("skipped %d under pure buffer pressure", st.Skipped)
	}
	for _, fr := range pads {
		if err := pool.Unfix(fr, false); err != nil {
			t.Fatal(err)
		}
	}
	if n := pool.PinnedFrames(); n != 0 {
		t.Errorf("%d pinned frames after drain", n)
	}
}

// TestTransientExhaustionSurfacesNotQuarantines: under RetryFaults a
// fault that is still transient after the retry budget — a flapping
// path to the device, not a dead page — must surface as an error, not
// poison the complex object into quarantine.
func TestTransientExhaustionSurfacesNotQuarantines(t *testing.T) {
	w := buildFaultWorld(t, 20, 31)
	// Endless transient faults: no retry budget can outlast them.
	w.dev.SetConfig(disk.FaultConfig{Seed: 9, TransientRate: 0.2, TransientFailures: 1 << 30})
	if err := w.db.Pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	op := assembly.New(rootsSource(w.db.Roots), w.db.Store, w.db.Template,
		assembly.Options{Window: 4, FaultPolicy: assembly.RetryFaults})
	_, err := volcano.Drain(op)
	if err == nil {
		t.Fatal("assembly over an endlessly flapping device succeeded")
	}
	if !disk.Retryable(err) {
		t.Fatalf("surfaced error %v is not retryable — transient class lost", err)
	}
	if got := op.Stats().Skipped; got != 0 {
		t.Errorf("Skipped = %d, want 0: transient exhaustion must not quarantine", got)
	}

	// Sanity: with the faults cleared, the same run assembles everything.
	w.dev.SetConfig(disk.FaultConfig{})
	got, st := w.runFaulted(t, assembly.Options{Window: 4, FaultPolicy: assembly.RetryFaults})
	if len(got) != len(w.db.Roots) || st.Skipped != 0 {
		t.Errorf("clean re-run: assembled %d/%d, skipped %d", len(got), len(w.db.Roots), st.Skipped)
	}
}
