package assembly_test

import (
	"testing"

	"revelation/internal/assembly"
	"revelation/internal/gen"
	"revelation/internal/volcano"
)

// Per-operator micro-benchmarks: cost of assembling one complex object
// under each scheduler, and the shared-table and swizzling overheads.

func benchDB(b *testing.B, cfg gen.Config) *gen.Database {
	b.Helper()
	db, err := gen.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return db
}

func benchAssemble(b *testing.B, db *gen.Database, opts assembly.Options) {
	b.Helper()
	items := make([]volcano.Item, len(db.Roots))
	for i, r := range db.Roots {
		items[i] = r
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := db.Pool.EvictAll(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		op := assembly.New(volcano.NewSlice(items), db.Store, db.Template, opts)
		n, err := volcano.Count(op)
		if err != nil {
			b.Fatal(err)
		}
		if n != len(db.Roots) {
			b.Fatalf("assembled %d", n)
		}
	}
	b.ReportMetric(float64(len(db.Roots)*db.NodesPerObject), "objects/op")
}

func BenchmarkAssembleDepthFirst(b *testing.B) {
	db := benchDB(b, gen.Config{NumComplexObjects: 500, Clustering: gen.Unclustered, Seed: 61})
	benchAssemble(b, db, assembly.Options{Window: 1, Scheduler: assembly.DepthFirst})
}

func BenchmarkAssembleBreadthFirst(b *testing.B) {
	db := benchDB(b, gen.Config{NumComplexObjects: 500, Clustering: gen.Unclustered, Seed: 61})
	benchAssemble(b, db, assembly.Options{Window: 50, Scheduler: assembly.BreadthFirst})
}

func BenchmarkAssembleElevator(b *testing.B) {
	db := benchDB(b, gen.Config{NumComplexObjects: 500, Clustering: gen.Unclustered, Seed: 61})
	benchAssemble(b, db, assembly.Options{Window: 50, Scheduler: assembly.Elevator})
}

func BenchmarkAssembleElevatorSharing(b *testing.B) {
	db := benchDB(b, gen.Config{NumComplexObjects: 500, Sharing: 0.25, Clustering: gen.InterObject, Seed: 61})
	benchAssemble(b, db, assembly.Options{Window: 50, Scheduler: assembly.Elevator, UseSharingStats: true})
}

// The two shapes the arena is pinned on: the benchmark's deep-window
// objects (31 components, shared leaves, W=200) and the paper's
// 7-component objects (W=50), both with the pool holding the data.
var (
	deepShape = gen.Config{NumComplexObjects: 400, Fanouts: []int{2, 2, 2, 2}, Sharing: 0.25, Clustering: gen.Unclustered, Seed: 63}
	deepOpts  = assembly.Options{Window: 200, Scheduler: assembly.Elevator}
	scanShape = gen.Config{NumComplexObjects: 400, Clustering: gen.Unclustered, Seed: 64}
	scanOpts  = assembly.Options{Window: 50, Scheduler: assembly.Elevator}
)

// BenchmarkAssembleDeep and BenchmarkAssembleScan report allocs/op and
// B/op for one query over 400 roots (divide by 400 for per-object
// figures; EXPERIMENTS.md "The window arena" has before and after).
func BenchmarkAssembleDeep(b *testing.B) {
	b.ReportAllocs()
	benchAssemble(b, benchDB(b, deepShape), deepOpts)
}

func BenchmarkAssembleScan(b *testing.B) {
	b.ReportAllocs()
	benchAssemble(b, benchDB(b, scanShape), scanOpts)
}

// TestAssembleAllocs pins the arena: allocations per emitted complex
// object, everything a query allocates included (operator, scheduler,
// window slots), against 218 and 48 before the arena.
func TestAssembleAllocs(t *testing.T) {
	for _, c := range []struct {
		name  string
		cfg   gen.Config
		opts  assembly.Options
		nodes int
		limit float64
	}{
		{"deep 31-node shared-leaf, W=200", deepShape, deepOpts, 31, 16},
		{"paper 7-node, W=50", scanShape, scanOpts, 7, 10},
	} {
		db, err := gen.Build(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if db.NodesPerObject != c.nodes {
			t.Fatalf("%s: %d components per object", c.name, db.NodesPerObject)
		}
		items := make([]volcano.Item, len(db.Roots))
		for i, r := range db.Roots {
			items[i] = r
		}
		query := func() {
			op := assembly.New(volcano.NewSlice(items), db.Store, db.Template, c.opts)
			if n, err := volcano.Count(op); err != nil || n != len(items) {
				t.Fatalf("%s: assembled %d of %d: %v", c.name, n, len(items), err)
			}
		}
		perObject := testing.AllocsPerRun(5, query) / float64(len(items))
		t.Logf("%s: %.2f allocs per complex object", c.name, perObject)
		if perObject > c.limit {
			t.Errorf("%s: %.2f allocs per complex object, limit %v", c.name, perObject, c.limit)
		}
	}
}

// BenchmarkTraverseAssembled measures pointer-swizzled traversal: the
// whole point of assembly is that scans of the result cost memory
// pointer chasing, not OID lookups.
func BenchmarkTraverseAssembled(b *testing.B) {
	db := benchDB(b, gen.Config{NumComplexObjects: 200, Seed: 62})
	items := make([]volcano.Item, len(db.Roots))
	for i, r := range db.Roots {
		items[i] = r
	}
	op := assembly.New(volcano.NewSlice(items), db.Store, db.Template,
		assembly.Options{Window: 50, Scheduler: assembly.Elevator})
	out, err := volcano.Drain(op)
	if err != nil {
		b.Fatal(err)
	}
	insts := make([]*assembly.Instance, len(out))
	for i, it := range out {
		insts[i] = it.(*assembly.Instance)
	}
	b.ResetTimer()
	var sum int64
	for i := 0; i < b.N; i++ {
		for _, inst := range insts {
			inst.Walk(func(in *assembly.Instance) {
				sum += int64(in.Object.Ints[0])
			})
		}
	}
	if sum == 0 {
		b.Log("sum", sum)
	}
}
