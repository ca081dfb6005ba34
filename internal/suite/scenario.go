package suite

import (
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
// generate, onto which device stack, and how to assemble it. Suite
// scenarios come from ParseScenarios, which applies defaults and
// validates knob combinations; the figure table (figures.go) and tests
// write them as Go literals, where a zero Workload, Shape or Backend
// means assemble, paper and local.
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
	Iters      int
	Warmup     int

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

	// The fields below have no config key: no checked-in suite sets
	// them, the figure table does.

	// Selectivity, when positive, puts a predicate passing that fraction
	// (0–1) on the paper shape's rightmost leaf; PredicateFirst resolves
	// the references that can reject a complex object first (Section 7).
	Selectivity    float64
	PredicateFirst bool
	// Devices, when positive, stripes the local backend's extent over
	// that many simulated devices (Section 7); PerDevice then assembles
	// with one elevator per device in place of Scheduler.
	Devices   int
	PerDevice bool
	// RegionPages is the inter-object cluster region in pages; zero is
	// the generator's default, larger than any database the paper uses
	// (the Fig. 11A flat lines).
	RegionPages int
}

// scenarioFromTable decodes and validates one [[scenario]] table,
// recording every problem in f.errs with its source line.
func scenarioFromTable(f *field) Scenario {
	sc := Scenario{
		Workload: WorkloadAssemble,
		Shape:    ShapePaper,
		Objects:  200,
		Window:   20,
		Backend:  BackendLocal,
		Iters:    3,
		Warmup:   1,
	}
	sc.Name = f.str("name", "")
	if sc.Name == "" {
		f.errf("name", "scenario needs a name")
	}
	sc.Suites = f.strings("suites")
	if len(sc.Suites) == 0 {
		f.errf("suites", "scenario %q: suites list is required (e.g. [\"core\"])", sc.Name)
	}

	if v, ok := f.take("seed", KindInt); ok {
		sc.Seed = v.Int
	} else {
		f.errf("seed", "scenario %q: seed is required — trajectories must not drift with defaults", sc.Name)
	}

	switch w := f.str("workload", string(WorkloadAssemble)); Workload(w) {
	case WorkloadAssemble, WorkloadTimeSeries, WorkloadIncremental, WorkloadReshard:
		sc.Workload = Workload(w)
	default:
		f.errf("workload", "scenario %q: unknown workload %q (assemble, timeseries, incremental, reshard)", sc.Name, w)
	}
	switch s := f.str("shape", string(ShapePaper)); Shape(s) {
	case ShapePaper, ShapeDeep, ShapeWide, ShapeShared:
		sc.Shape = Shape(s)
	default:
		f.errf("shape", "scenario %q: unknown shape %q (paper, deep, wide, shared)", sc.Name, s)
	}
	switch c := f.str("clustering", "unclustered"); c {
	case "unclustered":
		sc.Clustering = gen.Unclustered
	case "inter-object":
		sc.Clustering = gen.InterObject
	case "intra-object":
		sc.Clustering = gen.IntraObject
	default:
		f.errf("clustering", "scenario %q: unknown clustering %q (unclustered, inter-object, intra-object)", sc.Name, c)
	}
	switch s := f.str("scheduler", "elevator"); s {
	case "depth-first":
		sc.Scheduler = assembly.DepthFirst
	case "breadth-first":
		sc.Scheduler = assembly.BreadthFirst
	case "elevator":
		sc.Scheduler = assembly.Elevator
	default:
		f.errf("scheduler", "scenario %q: unknown scheduler %q (depth-first, breadth-first, elevator)", sc.Name, s)
	}
	switch b := f.str("backend", string(BackendLocal)); Backend(b) {
	case BackendLocal, BackendFile, BackendPagesvc, BackendSharded:
		sc.Backend = Backend(b)
	default:
		f.errf("backend", "scenario %q: unknown backend %q (local, file, pagesvc, sharded)", sc.Name, b)
	}
	switch p := f.str("fault_policy", "retry"); p {
	case "fail":
		sc.FaultPolicy = assembly.FailFast
	case "skip":
		sc.FaultPolicy = assembly.SkipObject
	case "retry":
		sc.FaultPolicy = assembly.RetryFaults
	default:
		f.errf("fault_policy", "scenario %q: unknown fault_policy %q (fail, skip, retry)", sc.Name, p)
	}

	sc.Objects = f.integer("objects", sc.Objects)
	sc.Window = f.integer("window", sc.Window)
	sc.BufferPgs = f.integer("buffer_pages", 0)
	sc.Iters = f.integer("iters", sc.Iters)
	sc.Warmup = f.integer("warmup", sc.Warmup)
	sc.Sharing = f.float("sharing", 0)
	sc.UseSharingStats = f.boolean("use_sharing_stats", false)
	sc.AppendCount = f.integer("append_count", 0)
	sc.MutateCount = f.integer("mutate_count", 0)
	sc.FaultTransient = f.float("fault_transient", 0)
	sc.FaultPermanent = f.float("fault_permanent", 0)
	if v, ok := f.take("fault_seed", KindInt); ok {
		sc.FaultSeed = v.Int
	} else {
		sc.FaultSeed = sc.Seed
	}
	sc.StallRate = f.float("stall_rate", 0)
	sc.Stall = time.Duration(f.integer("stall_us", 0)) * time.Microsecond
	sc.PinWindow = f.boolean("pin_window", false)
	sc.PageBatch = f.boolean("page_batch", false)

	// Range checks.
	if sc.Objects < 1 {
		f.errf("objects", "scenario %q: objects must be >= 1", sc.Name)
	}
	if sc.Window < 1 {
		f.errf("window", "scenario %q: window must be >= 1", sc.Name)
	}
	if sc.Iters < 1 {
		f.errf("iters", "scenario %q: iters must be >= 1", sc.Name)
	}
	if sc.Warmup < 0 {
		f.errf("warmup", "scenario %q: warmup must be >= 0", sc.Name)
	}
	if sc.Sharing < 0 || sc.Sharing >= 1 {
		f.errf("sharing", "scenario %q: sharing must be in [0, 1)", sc.Name)
	}
	for _, r := range []struct {
		key string
		val float64
	}{
		{"fault_transient", sc.FaultTransient},
		{"fault_permanent", sc.FaultPermanent},
		{"stall_rate", sc.StallRate},
	} {
		if r.val < 0 || r.val > 1 {
			f.errf(r.key, "scenario %q: %s must be in [0, 1]", sc.Name, r.key)
		}
	}

	// Knob-combination checks: a scenario whose knobs contradict its
	// workload would silently measure something else.
	faulted := sc.faulted()
	if faulted && sc.Backend != BackendLocal {
		f.errf("backend", "scenario %q: fault/stall knobs require backend = \"local\" (the injector wraps the simulated device)", sc.Name)
	}
	if sc.Workload == WorkloadTimeSeries {
		if sc.AppendCount < 1 {
			f.errf("append_count", "scenario %q: timeseries workload needs append_count >= 1", sc.Name)
		}
		if sc.Sharing > 0 {
			f.errf("sharing", "scenario %q: timeseries appends are whole trees; sharing is not supported", sc.Name)
		}
	} else if sc.AppendCount != 0 {
		f.errf("append_count", "scenario %q: append_count only applies to the timeseries workload", sc.Name)
	}
	if sc.Workload == WorkloadIncremental {
		if sc.MutateCount < 1 {
			f.errf("mutate_count", "scenario %q: incremental workload needs mutate_count >= 1", sc.Name)
		}
		if faulted {
			f.errf("fault_transient", "scenario %q: incremental workload does not support fault injection", sc.Name)
		}
	} else if sc.MutateCount != 0 {
		f.errf("mutate_count", "scenario %q: mutate_count only applies to the incremental workload", sc.Name)
	}
	if sc.Workload == WorkloadReshard && sc.Backend != BackendSharded {
		f.errf("backend", "scenario %q: reshard workload needs backend = \"sharded\" (it migrates pages between fleet members)", sc.Name)
	}
	if sc.UseSharingStats && sc.Sharing == 0 {
		f.errf("use_sharing_stats", "scenario %q: use_sharing_stats needs sharing > 0", sc.Name)
	}
	if sc.Shape == ShapeShared && sc.Sharing == 0 {
		sc.Sharing = 0.25
	}
	if sc.Clustering == gen.InterObject {
		// Size type regions to the database instead of the generator's
		// generous default, so wide shapes don't blow up the extent.
		sc.RegionPages = sc.Objects/9 + 2
	}
	return sc
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
