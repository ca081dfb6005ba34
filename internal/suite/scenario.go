package suite

import (
	"fmt"
	"time"

	"revelation/internal/assembly"
	"revelation/internal/gen"
)

// Workload names the measured phase's access pattern.
type Workload string

// Workloads.
const (
	// WorkloadAssemble assembles every complex object in the database —
	// the paper's Section 6 read benchmark.
	WorkloadAssemble Workload = "assemble"
	// WorkloadTimeSeries appends fresh complex objects at the extent's
	// tail (time-ordered arrivals) and assembles the appended window —
	// the append+assemble pattern of telemetry stores.
	WorkloadTimeSeries Workload = "timeseries"
	// WorkloadIncremental registers a standing query over every root,
	// mutates a batch of components, and re-assembles only the roots
	// the mutations invalidated.
	WorkloadIncremental Workload = "incremental"
	// WorkloadReshard assembles half the roots over a three-member shard
	// fleet, live-migrates a fourth member's rendezvous delta into the
	// fleet (crash-safe cutover through the ownership log), then
	// assembles the rest over the enlarged fleet. Sharded backend only.
	WorkloadReshard Workload = "reshard"
)

// Shape names the object-graph template a scenario generates.
type Shape string

// Shapes. The paper's shape is the 3-level binary tree; the OO7-style
// shapes stress the axes the OO7 benchmark made standard: assembly
// depth, composite width, and shared subobjects.
const (
	ShapePaper  Shape = "paper"  // 3-level binary tree, 7 components
	ShapeDeep   Shape = "deep"   // fanouts [2,2,2,2]: 5 levels, 31 components
	ShapeWide   Shape = "wide"   // fanouts [8,4]: 3 levels, 41 components
	ShapeShared Shape = "shared" // fanouts [3,3] with shared leaves
)

// fanouts returns the per-level fanout vector for the shape (nil means
// gen's default paper shape).
func (s Shape) fanouts() []int {
	switch s {
	case ShapeDeep:
		return []int{2, 2, 2, 2}
	case ShapeWide:
		return []int{8, 4}
	case ShapeShared:
		return []int{3, 3}
	default:
		return nil
	}
}

// Backend names the device stack under the buffer pool.
type Backend string

// Backends.
const (
	BackendLocal   Backend = "local"   // in-memory simulated disk
	BackendFile    Backend = "file"    // file-backed device in a temp dir
	BackendPagesvc Backend = "pagesvc" // in-process page service over TCP loopback
	// BackendSharded runs an in-process three-shard page-service fleet
	// behind the rendezvous router, assembled with the per-shard
	// elevator and shard prefetch (the scheduler key is ignored).
	BackendSharded Backend = "sharded"
)

// Scenario is the one description of a measured run: what database to
// generate, onto which device stack, and how to assemble it. The suite
// table (Scenarios), the figure table (figures.go) and tests write them
// as Go literals; withDefaults is the one defaults path (a zero
// Workload, Shape or Backend means assemble, paper and local), and Run
// checks every suite scenario with validate.
type Scenario struct {
	Name   string
	Suites []string // suite names this scenario belongs to

	Workload   Workload
	Shape      Shape
	Seed       int64
	Objects    int // complex objects in the generated database
	Clustering gen.Clustering
	Scheduler  assembly.SchedulerKind
	Window     int
	BufferPgs  int // 0 = hold the whole database
	Backend    Backend

	Sharing         float64
	UseSharingStats bool

	// Time-series knobs.
	AppendCount int // complex objects appended per iteration

	// Incremental knobs.
	MutateCount int // components mutated per iteration

	// Fault/stall knobs (local backend only; the injector wraps the
	// simulated device).
	FaultTransient float64
	FaultPermanent float64
	FaultSeed      int64
	FaultPolicy    assembly.FaultPolicy
	StallRate      float64
	Stall          time.Duration

	PinWindow bool
	PageBatch bool

	// RegionPages is the inter-object cluster region in pages; zero is
	// the generator's default, larger than any database the paper uses
	// (the Fig. 11A flat lines).
	RegionPages int

	// The fields below no suite scenario sets; the figure table does.

	// Selectivity, when positive, puts a predicate passing that fraction
	// (0–1) on the paper shape's rightmost leaf; PredicateFirst resolves
	// the references that can reject a complex object first (Section 7).
	Selectivity    float64
	PredicateFirst bool
	// Devices, when positive, stripes the local backend's extent over
	// that many simulated devices (Section 7). The Elevator then keeps
	// one elevator per device; GlobalElevator keeps the one sweep.
	Devices int
}

// validate reports the first range or knob-combination problem of a
// scenario with its defaults applied: a scenario whose knobs contradict
// its workload would silently measure something else.
func (sc Scenario) validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("scenario %q: "+format, append([]any{sc.Name}, args...)...)
	}
	unit := func(v float64) bool { return v >= 0 && v <= 1 }
	faulted := sc.faulted()
	switch {
	case sc.Objects < 1:
		return bad("objects must be >= 1")
	case sc.Window < 1:
		return bad("window must be >= 1")
	case sc.Sharing < 0 || sc.Sharing >= 1:
		return bad("sharing must be in [0, 1)")
	case !unit(sc.FaultTransient) || !unit(sc.FaultPermanent) || !unit(sc.StallRate):
		return bad("fault and stall rates must be in [0, 1]")
	case faulted && sc.Backend != BackendLocal:
		return bad("fault/stall knobs require the local backend (the injector wraps the simulated device)")
	case sc.Workload == WorkloadTimeSeries && sc.AppendCount < 1:
		return bad("timeseries workload needs AppendCount >= 1")
	case sc.Workload == WorkloadTimeSeries && sc.Sharing > 0:
		return bad("timeseries appends are whole trees; sharing is not supported")
	case sc.Workload != WorkloadTimeSeries && sc.AppendCount != 0:
		return bad("AppendCount only applies to the timeseries workload")
	case sc.Workload == WorkloadIncremental && sc.MutateCount < 1:
		return bad("incremental workload needs MutateCount >= 1")
	case sc.Workload == WorkloadIncremental && faulted:
		return bad("incremental workload does not support fault injection")
	case sc.Workload != WorkloadIncremental && sc.MutateCount != 0:
		return bad("MutateCount only applies to the incremental workload")
	case sc.Workload == WorkloadReshard && sc.Backend != BackendSharded:
		return bad("reshard workload needs the sharded backend (it migrates pages between fleet members)")
	case sc.UseSharingStats && sc.Sharing == 0:
		return bad("UseSharingStats needs Sharing > 0")
	}
	return nil
}

// InSuite reports whether the scenario belongs to the named suite.
func (sc Scenario) InSuite(suite string) bool {
	for _, s := range sc.Suites {
		if s == suite {
			return true
		}
	}
	return false
}

// genConfig translates the scenario into a generator configuration.
func (sc Scenario) genConfig() gen.Config {
	cfg := gen.Config{
		NumComplexObjects: sc.Objects,
		Fanouts:           sc.Shape.fanouts(),
		Clustering:        sc.Clustering,
		Sharing:           sc.Sharing,
		Seed:              sc.Seed,
		BufferPages:       sc.BufferPgs,
		RegionPages:       sc.RegionPages,
	}
	if sc.Workload == WorkloadTimeSeries {
		// Headroom for the appended trees: components per tree times
		// appends, at 9 objects per page, rounded up generously.
		nodes := 7
		if fo := sc.Shape.fanouts(); fo != nil {
			nodes = 1
			w := 1
			for _, f := range fo {
				w *= f
				nodes += w
			}
		}
		cfg.ExtraPages = (sc.AppendCount*nodes)/9 + 2
	}
	return cfg
}
