package suite

import (
	"time"

	"revelation/internal/assembly"
	"revelation/internal/gen"
)

// suiteSeed pins every suite scenario: BENCH_<suite>.json is a
// deterministic trajectory, and drift must come from code, never from
// defaults.
const suiteSeed = 91

// Scenarios returns the continuous suite: each entry is one named
// benchmark configuration, and Suites says which suites run it ("core"
// is the full tracked trajectory, "smoke" the small CI subset). Every
// entry spells out every knob it reads, so withDefaults leaves it as it
// is; Run rejects contradictory knobs (validate).
func Scenarios() []Scenario {
	const retry = assembly.RetryFaults
	return []Scenario{
		// --- paper shapes: the Section 6 sweep, tracked continuously ---
		{
			Name: "paper-unclustered-depth", Suites: []string{"core", "smoke"},
			Workload: WorkloadAssemble, Shape: ShapePaper, Clustering: gen.Unclustered,
			Scheduler: assembly.DepthFirst, Backend: BackendLocal, Window: 1, Objects: 200,
			Seed: suiteSeed, FaultSeed: suiteSeed, FaultPolicy: retry,
		},
		{
			Name: "paper-interobject-elevator", Suites: []string{"core", "smoke"},
			Workload: WorkloadAssemble, Shape: ShapePaper, Clustering: gen.InterObject,
			Scheduler: assembly.Elevator, Backend: BackendLocal, Window: 50, Objects: 200,
			Seed: suiteSeed, FaultSeed: suiteSeed, FaultPolicy: retry,
			// Type regions sized to the database (Objects/9+2) instead of
			// the generator's generous default.
			RegionPages: 200/9 + 2,
		},

		// --- OO7-style shapes: depth, width, and shared subobjects ---
		{
			Name: "oo7-deep-elevator", Suites: []string{"core"},
			Workload: WorkloadAssemble, Shape: ShapeDeep, Clustering: gen.Unclustered,
			Scheduler: assembly.Elevator, Backend: BackendLocal, Window: 25, Objects: 80,
			Seed: suiteSeed, FaultSeed: suiteSeed, FaultPolicy: retry,
		},
		{
			Name: "oo7-wide-breadth", Suites: []string{"core"},
			Workload: WorkloadAssemble, Shape: ShapeWide, Clustering: gen.Unclustered,
			Scheduler: assembly.BreadthFirst, Backend: BackendLocal, Window: 10, Objects: 60,
			Seed: suiteSeed, FaultSeed: suiteSeed, FaultPolicy: retry,
		},
		{
			Name: "oo7-shared-file", Suites: []string{"core"},
			Workload: WorkloadAssemble, Shape: ShapeShared, Clustering: gen.Unclustered,
			Scheduler: assembly.Elevator, Backend: BackendFile, Window: 25, Objects: 100,
			Seed: suiteSeed, FaultSeed: suiteSeed, FaultPolicy: retry,
			Sharing: 0.25, UseSharingStats: true,
		},

		// --- new workloads ---
		{
			Name: "timeseries-append", Suites: []string{"core", "smoke"},
			Workload: WorkloadTimeSeries, Shape: ShapePaper, Clustering: gen.Unclustered,
			Scheduler: assembly.Elevator, Backend: BackendLocal, Window: 20, Objects: 150,
			Seed: suiteSeed, FaultSeed: suiteSeed, FaultPolicy: retry,
			AppendCount: 40,
		},
		{
			Name: "incremental-standing", Suites: []string{"core"},
			Workload: WorkloadIncremental, Shape: ShapePaper, Clustering: gen.Unclustered,
			Scheduler: assembly.Elevator, Backend: BackendLocal, Window: 20, Objects: 150,
			Seed: suiteSeed, FaultSeed: suiteSeed, FaultPolicy: retry,
			MutateCount: 25,
		},

		// --- resilience and remote backends ---
		{
			Name: "faulty-retry-elevator", Suites: []string{"core"},
			Workload: WorkloadAssemble, Shape: ShapePaper, Clustering: gen.Unclustered,
			Scheduler: assembly.Elevator, Backend: BackendLocal, Window: 25, Objects: 150,
			Seed: suiteSeed, FaultSeed: suiteSeed, FaultPolicy: retry,
			FaultTransient: 0.05,
		},
		{
			Name: "stalled-elevator", Suites: []string{"core"},
			Workload: WorkloadAssemble, Shape: ShapePaper, Clustering: gen.Unclustered,
			Scheduler: assembly.Elevator, Backend: BackendLocal, Window: 25, Objects: 100,
			Seed: suiteSeed, FaultSeed: suiteSeed, FaultPolicy: retry,
			StallRate: 0.05, Stall: 100 * time.Microsecond,
		},
		{
			Name: "pagesvc-elevator", Suites: []string{"core"},
			Workload: WorkloadAssemble, Shape: ShapePaper, Clustering: gen.Unclustered,
			Scheduler: assembly.Elevator, Backend: BackendPagesvc, Window: 25, Objects: 100,
			Seed: suiteSeed, FaultSeed: suiteSeed, FaultPolicy: retry,
		},
		{
			Name: "sharded", Suites: []string{"core", "shard"},
			Workload: WorkloadAssemble, Shape: ShapePaper, Clustering: gen.Unclustered,
			Scheduler: assembly.Elevator, Backend: BackendSharded, Window: 25, Objects: 100,
			Seed: suiteSeed, FaultSeed: suiteSeed, FaultPolicy: retry,
		},
		// Live resharding under load: assemble half the roots on three
		// shards, migrate a fourth member's rendezvous delta in
		// (WAL-logged cutovers), assemble the rest on the enlarged fleet.
		// Tracks the cost of growing a fleet without stopping queries.
		{
			Name: "fleet", Suites: []string{"core", "fleet"},
			Workload: WorkloadReshard, Shape: ShapePaper, Clustering: gen.Unclustered,
			Scheduler: assembly.Elevator, Backend: BackendSharded, Window: 25, Objects: 100,
			Seed: suiteSeed, FaultSeed: suiteSeed, FaultPolicy: retry,
		},
	}
}
