package assembly_test

// Integration tests running the assembly operator against databases
// from the paper's benchmark generator: sharing, selective assembly,
// stacked operators, parallel assembly, and cross-scheduler
// equivalence at benchmark scale.

import (
	"errors"
	"sort"
	"testing"

	"revelation/internal/assembly"
	"revelation/internal/disk"
	"revelation/internal/expr"
	"revelation/internal/gen"
	"revelation/internal/object"
	"revelation/internal/volcano"
)

func buildDB(t testing.TB, cfg gen.Config) *gen.Database {
	t.Helper()
	db, err := gen.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func rootsSource(roots []object.OID) volcano.Iterator {
	items := make([]volcano.Item, len(roots))
	for i, r := range roots {
		items[i] = r
	}
	return volcano.NewSlice(items)
}

func drainAssembly(t testing.TB, op *assembly.Operator) []*assembly.Instance {
	t.Helper()
	items, err := volcano.Drain(op)
	if err != nil {
		t.Fatalf("assembly: %v", err)
	}
	out := make([]*assembly.Instance, len(items))
	for i, it := range items {
		out[i] = it.(*assembly.Instance)
	}
	return out
}

func verifyTree(t testing.TB, db *gen.Database, inst *assembly.Instance) {
	t.Helper()
	inst.Walk(func(in *assembly.Instance) {
		for slot, ct := range in.Node.Children {
			want := in.Object.Refs[ct.RefField]
			child := in.Children[slot]
			if want.IsNil() {
				if child != nil {
					t.Fatalf("child for nil ref at %v", in.OID())
				}
				continue
			}
			if child == nil || child.OID() != want {
				t.Fatalf("swizzle mismatch at %v slot %d", in.OID(), slot)
			}
		}
	})
}

func TestAssembleGeneratedDatabaseAllPolicies(t *testing.T) {
	for _, cl := range []gen.Clustering{gen.Unclustered, gen.InterObject, gen.IntraObject} {
		db := buildDB(t, gen.Config{NumComplexObjects: 300, Clustering: cl, Seed: 11})
		for _, kind := range []assembly.SchedulerKind{assembly.DepthFirst, assembly.BreadthFirst, assembly.Elevator} {
			for _, w := range []int{1, 50} {
				op := assembly.New(rootsSource(db.Roots), db.Store, db.Template,
					assembly.Options{Window: w, Scheduler: kind})
				out := drainAssembly(t, op)
				if len(out) != 300 {
					t.Fatalf("%v/%v/w%d: assembled %d", cl, kind, w, len(out))
				}
				for _, inst := range out {
					if inst.Size() != 7 {
						t.Fatalf("%v/%v/w%d: %d components", cl, kind, w, inst.Size())
					}
					verifyTree(t, db, inst)
				}
				if err := db.Pool.EvictAll(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func TestSharingReducesFetches(t *testing.T) {
	db := buildDB(t, gen.Config{NumComplexObjects: 400, Sharing: 0.25, Clustering: gen.InterObject, Seed: 12})

	run := func(useStats bool) (assembly.Stats, int) {
		if err := db.Pool.EvictAll(); err != nil {
			t.Fatal(err)
		}
		db.Device.ResetStats()
		op := assembly.New(rootsSource(db.Roots), db.Store, db.Template,
			assembly.Options{Window: 50, Scheduler: assembly.Elevator, UseSharingStats: useStats})
		out := drainAssembly(t, op)
		for _, inst := range out {
			verifyTree(t, db, inst)
		}
		if len(out) != 400 {
			t.Fatalf("assembled %d", len(out))
		}
		return op.Stats(), int(db.Device.Stats().Reads)
	}

	naive, _ := run(false)
	smart, _ := run(true)
	if smart.SharedLinks <= naive.SharedLinks {
		t.Errorf("sharing stats produced no extra shared links: %d vs %d", smart.SharedLinks, naive.SharedLinks)
	}
	if smart.Fetched >= naive.Fetched {
		t.Errorf("sharing stats did not reduce fetches: %d vs %d", smart.Fetched, naive.Fetched)
	}
	// Every emitted tree must still have 7 reachable components.
	if smart.Assembled != 400 {
		t.Errorf("assembled %d with sharing stats", smart.Assembled)
	}
}

func TestSharedInstancesAreIdentical(t *testing.T) {
	db := buildDB(t, gen.Config{NumComplexObjects: 100, Sharing: 0.1, Seed: 13})
	op := assembly.New(rootsSource(db.Roots), db.Store, db.Template,
		assembly.Options{Window: 100, Scheduler: assembly.Elevator, UseSharingStats: true})
	out := drainAssembly(t, op)
	// A shared leaf reached from two different complex objects must be
	// the same *Instance (assembled once), not two copies.
	byOID := map[object.OID]*assembly.Instance{}
	dupes := 0
	for _, inst := range out {
		inst.Walk(func(in *assembly.Instance) {
			if !in.Node.Shared {
				return
			}
			if prev, ok := byOID[in.OID()]; ok {
				if prev != in {
					dupes++
				}
				return
			}
			byOID[in.OID()] = in
		})
	}
	// Instances may be duplicated when the shared table's expected
	// reference count (a statistic, not a guarantee) runs out before
	// the real references do, but the table must deduplicate the bulk:
	// 100 trees × 4 leaf slots = 400 references over ~40 distinct
	// leaves; without the table every reference beyond the first per
	// complex object would be a fresh copy.
	reuses := 0
	for _, inst := range byOID {
		if inst.RefCount() > 1 {
			reuses++
		}
	}
	if reuses == 0 {
		t.Error("no shared instance was reused")
	}
	if dupes > 200 {
		t.Errorf("too many duplicated shared instances: %d of 400 references (distinct %d)", dupes, len(byOID))
	}
}

func TestSelectiveAssemblyGenerated(t *testing.T) {
	db := buildDB(t, gen.Config{NumComplexObjects: 500, Clustering: gen.Unclustered, Seed: 14})
	tmpl := db.Template.Clone()
	// Predicate on leaf position G (rightmost): rand < 100 (10%).
	leaf := tmpl.Children[1].Children[1]
	leaf.Pred = expr.IntCmp{Field: 1, Op: expr.LT, Value: 100, Sel: 0.1}

	op := assembly.New(rootsSource(db.Roots), db.Store, tmpl,
		assembly.Options{Window: 50, Scheduler: assembly.Elevator, PredicateFirst: true})
	out := drainAssembly(t, op)
	st := op.Stats()
	if st.Assembled+st.Aborted != 500 {
		t.Fatalf("assembled %d + aborted %d != 500", st.Assembled, st.Aborted)
	}
	if len(out) == 0 || len(out) > 120 {
		t.Errorf("selectivity 10%% kept %d of 500", len(out))
	}
	for _, inst := range out {
		g := inst.Children[1].Children[1]
		if g.Object.Ints[1] >= 100 {
			t.Error("predicate violated in emitted object")
		}
		verifyTree(t, db, inst)
	}
	// Early abort must save fetches versus full assembly: full is
	// 7*500 = 3500.
	if st.Fetched >= 3500 {
		t.Errorf("selective assembly fetched %d, no savings", st.Fetched)
	}
}

func TestStackedAssembly(t *testing.T) {
	db := buildDB(t, gen.Config{NumComplexObjects: 120, Clustering: gen.InterObject, Seed: 15})
	full := db.Template
	sub := full.Children[0] // the B subtree (B, D, E)

	// Sub-roots: the B component of every tree.
	var subRoots []volcano.Item
	seen := map[object.OID]bool{}
	for _, root := range db.Roots {
		o, err := db.Store.Get(root)
		if err != nil {
			t.Fatal(err)
		}
		b := o.Refs[0]
		if !seen[b] {
			seen[b] = true
			subRoots = append(subRoots, b)
		}
	}
	plan, err := assembly.NewStacked(assembly.StackedConfig{
		Store:    db.Store,
		Full:     full,
		Sub:      sub,
		SubRoots: volcano.NewSlice(subRoots),
		EnclosingRoot: func(in *assembly.Instance) (object.OID, error) {
			return db.RootOf[in.OID()], nil
		},
		BottomUp: assembly.Options{Window: 20, Scheduler: assembly.Elevator},
		TopDown:  assembly.Options{Window: 20, Scheduler: assembly.Elevator},
	})
	if err != nil {
		t.Fatal(err)
	}
	items, err := volcano.Drain(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 120 {
		t.Fatalf("stacked plan assembled %d of 120", len(items))
	}
	for _, it := range items {
		inst := it.(*assembly.Instance)
		if inst.Size() != 7 {
			t.Fatalf("stacked object has %d components", inst.Size())
		}
		verifyTree(t, db, inst)
	}
}

func TestStackedValidation(t *testing.T) {
	db := buildDB(t, gen.Config{NumComplexObjects: 10, Seed: 16})
	foreign := db.Template.Clone().Children[0]
	_, err := assembly.NewStacked(assembly.StackedConfig{
		Store:         db.Store,
		Full:          db.Template,
		Sub:           foreign, // clone: not a node of Full
		SubRoots:      volcano.NewSlice(nil),
		EnclosingRoot: func(*assembly.Instance) (object.OID, error) { return 0, nil },
	})
	if err == nil {
		t.Error("foreign sub-template accepted")
	}
	_, err = assembly.NewStacked(assembly.StackedConfig{
		Store: db.Store, Full: db.Template, Sub: db.Template.Children[0],
		SubRoots: volcano.NewSlice(nil),
	})
	if err == nil {
		t.Error("missing EnclosingRoot accepted")
	}
}

func TestParallelAssembly(t *testing.T) {
	db := buildDB(t, gen.Config{NumComplexObjects: 240, Clustering: gen.Unclustered, Seed: 17})
	for _, degree := range []int{1, 2, 4} {
		plan := assembly.NewParallel(db.Roots, db.Store, db.Template,
			assembly.Options{Window: 10, Scheduler: assembly.Elevator}, degree)
		items, err := volcano.Drain(plan)
		if err != nil {
			t.Fatalf("degree %d: %v", degree, err)
		}
		if len(items) != 240 {
			t.Fatalf("degree %d: assembled %d", degree, len(items))
		}
		var got []int
		for _, it := range items {
			inst := it.(*assembly.Instance)
			if inst.Size() != 7 {
				t.Fatalf("degree %d: %d components", degree, inst.Size())
			}
			got = append(got, int(inst.OID()))
		}
		sort.Ints(got)
		for i := 1; i < len(got); i++ {
			if got[i] == got[i-1] {
				t.Fatalf("degree %d: duplicate root %d", degree, got[i])
			}
		}
		if err := db.Pool.EvictAll(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAssemblyIOFaultSurfaces(t *testing.T) {
	db := buildDB(t, gen.Config{NumComplexObjects: 50, Seed: 18})
	sim := db.Device.(*disk.Sim)
	boom := errors.New("media error")
	count := 0
	sim.SetFault(func(p disk.PageID, write bool) error {
		if !write {
			count++
			if count == 30 {
				return boom
			}
		}
		return nil
	})
	op := assembly.New(rootsSource(db.Roots), db.Store, db.Template,
		assembly.Options{Window: 10, Scheduler: assembly.Elevator})
	_, err := volcano.Drain(op)
	if !errors.Is(err, boom) {
		t.Errorf("I/O fault not surfaced: %v", err)
	}
}

func TestWindowFootprintMatchesPaperFormula(t *testing.T) {
	// Section 6.3.3: at W=1 at most 7 pages are needed; at W=50 up to
	// 6*(W-1) + 7 = 301. Unclustered placement makes components land
	// on distinct pages, so the peak should approach but not exceed
	// the bound.
	db := buildDB(t, gen.Config{NumComplexObjects: 300, Clustering: gen.Unclustered, Seed: 20})
	for _, w := range []int{1, 10, 50} {
		if err := db.Pool.EvictAll(); err != nil {
			t.Fatal(err)
		}
		op := assembly.New(rootsSource(db.Roots), db.Store, db.Template,
			assembly.Options{Window: w, Scheduler: assembly.Elevator})
		drainAssembly(t, op)
		bound := 6*(w-1) + 7 + 7 // +7 slack: completed objects queue briefly
		if got := op.Stats().PeakWindowPgs; got > bound {
			t.Errorf("W=%d: peak window footprint %d pages exceeds bound %d", w, got, bound)
		}
	}
}
