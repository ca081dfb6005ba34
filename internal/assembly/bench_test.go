package assembly_test

import (
	"runtime"
	"testing"

	"revelation/internal/assembly"
	"revelation/internal/disk"
	"revelation/internal/gen"
	"revelation/internal/metrics"
	"revelation/internal/shard"
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

// rootItems is the database's roots as a query's input items.
func rootItems(db *gen.Database) []volcano.Item {
	items := make([]volcano.Item, len(db.Roots))
	for i, r := range db.Roots {
		items[i] = r
	}
	return items
}

func benchAssemble(b *testing.B, db *gen.Database, opts assembly.Options) {
	b.Helper()
	items := rootItems(db)
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
	// Fig. 15's setting: a quarter of the leaves shared, inter-object
	// clustering, the window-wide shared table on, so every leaf is a
	// component of its own.
	sharedShape = gen.Config{NumComplexObjects: 400, Sharing: 0.25, Clustering: gen.InterObject, Seed: 65}
	sharedOpts  = assembly.Options{Window: 50, Scheduler: assembly.Elevator, UseSharingStats: true}
	// The lanes path over local devices — scan-sharded's, without the
	// wire: the paper's objects on a shard router over two simulated
	// devices (onRouter), whose elevator keeps a lane per member and
	// prefetches them, and a pool of 64 frames so that most components
	// are read ahead by the lanes.
	lanesShape = gen.Config{NumComplexObjects: 400, Clustering: gen.Unclustered, Seed: 66, BufferPages: 64}
	lanesOpts  = assembly.Options{Window: 50, Scheduler: assembly.Elevator}
)

// onRouter puts cfg's database on a fresh shard router over two
// simulated devices.
func onRouter(tb testing.TB, cfg gen.Config) gen.Config {
	tb.Helper()
	r, err := shard.New(shard.Config{Members: []shard.Member{{Name: "m0", Primary: disk.New(0)}, {Name: "m1", Primary: disk.New(0)}}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { r.Close() })
	cfg.Device = r
	return cfg
}

// BenchmarkAssembleDeep and BenchmarkAssembleScan report allocs/op and
// B/op for one query over 400 roots (divide by 400 for per-object
// figures; EXPERIMENTS.md "The window arena" has before and after).
func BenchmarkAssembleDeep(b *testing.B) {
	b.ReportAllocs()
	benchAssemble(b, benchDB(b, deepShape), deepOpts)
}

// BenchmarkAssembleDeepRegistry is BenchmarkAssembleDeep with a metrics
// registry bound, which the operator publishes its cells into per
// object (EXPERIMENTS.md "Metrics overhead").
func BenchmarkAssembleDeepRegistry(b *testing.B) {
	b.ReportAllocs()
	opts := deepOpts
	opts.Metrics = metrics.NewRegistry()
	benchAssemble(b, benchDB(b, deepShape), opts)
}

func BenchmarkAssembleScan(b *testing.B) {
	b.ReportAllocs()
	benchAssemble(b, benchDB(b, scanShape), scanOpts)
}

// BenchmarkAssembleShared is the own-component path: every shared leaf
// is allocated on its own, outside its item's chunk.
func BenchmarkAssembleShared(b *testing.B) {
	b.ReportAllocs()
	benchAssemble(b, benchDB(b, sharedShape), sharedOpts)
}

// BenchmarkAssembleLanes is the lanes path: the shard-elevator's
// batches, their runs read by buffer.Lanes, over a two-member router.
func BenchmarkAssembleLanes(b *testing.B) {
	b.ReportAllocs()
	benchAssemble(b, benchDB(b, onRouter(b, lanesShape)), lanesOpts)
}

// TestAssembleAllocs pins the arena: allocations and bytes per emitted
// complex object, everything a query allocates included (operator,
// scheduler, window slots, a lane query's elevator and lane workers). A
// complex object is its component chunk and its children list; with the
// shared table on (Fig. 15's setting) each shared leaf is one allocation
// of its own besides. The elevators' leaves and the lanes' read buffers
// are the last query's, so the first query warms them. Allocations are
// pinned at 5 % over their floor and bytes at 2 %, so that a chunk or a
// struct that rounds up to a larger size class shows (EXPERIMENTS.md
// has the floors' history).
func TestAssembleAllocs(t *testing.T) {
	for _, c := range []struct {
		name         string
		cfg          gen.Config
		opts         assembly.Options
		nodes        int
		allocs, size float64 // floors per complex object
	}{
		{"deep 31-node shared-leaf, W=200", deepShape, deepOpts, 31, 2.07, 8107},
		{"paper 7-node, W=50", scanShape, scanOpts, 7, 2.06, 1842},
		{"paper 7-node shared leaves, sharing stats, W=50", sharedShape, sharedOpts, 7, 3.48, 1343},
		{"paper 7-node on a 2-member router, lanes, 64 frames, W=50", onRouter(t, lanesShape), lanesOpts, 7, 2.12, 1845},
	} {
		db, err := gen.Build(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if db.NodesPerObject != c.nodes {
			t.Fatalf("%s: %d components per object", c.name, db.NodesPerObject)
		}
		items := rootItems(db)
		query := func() {
			op := assembly.New(volcano.NewSlice(items), db.Store, db.Template, c.opts)
			if n, err := volcano.Count(op); err != nil || n != len(items) {
				t.Fatalf("%s: assembled %d of %d: %v", c.name, n, len(items), err)
			}
		}
		allocs, size := perObject(query, len(items))
		t.Logf("%s: %.2f allocs, %.0f bytes per complex object", c.name, allocs, size)
		if limit := c.allocs * 1.05; allocs > limit {
			t.Errorf("%s: %.2f allocs per complex object, limit %.2f", c.name, allocs, limit)
		}
		if limit := c.size * 1.02; size > limit {
			t.Errorf("%s: %.0f bytes per complex object, limit %.0f", c.name, size, limit)
		}
	}
}

// perObject runs query once to warm up, then five times, and returns
// the allocations and bytes per run divided by objects — what
// testing.AllocsPerRun counts, with MemStats.TotalAlloc beside it.
func perObject(query func(), objects int) (allocs, size float64) {
	const runs = 5
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	query()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	n := float64(runs * objects)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

// BenchmarkTraverseAssembled measures pointer-swizzled traversal: the
// whole point of assembly is that scans of the result cost memory
// pointer chasing, not OID lookups.
func BenchmarkTraverseAssembled(b *testing.B) {
	db := benchDB(b, gen.Config{NumComplexObjects: 200, Seed: 62})
	op := assembly.New(volcano.NewSlice(rootItems(db)), db.Store, db.Template,
		assembly.Options{Window: 50, Scheduler: assembly.Elevator})
	out, err := volcano.Drain(nil, op)
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
