package suite

import (
	"revelation/internal/assembly"
	"revelation/internal/metrics"
	"revelation/internal/trace"
)

// Result is what one measured run reports: the bracket's device and
// pool deltas, the operator's counters, and — when a registry was
// attached — the registry's delta over the same bracket.
type Result struct {
	Measured
	Stats assembly.Stats
	Delta metrics.Snapshot
}

// run executes sc's measured phase once, cold, over e, inside the
// measurement bracket named sc.Name. It is the one place the harness
// measures: a suite iteration is run over a fresh env plus three-way
// verification (runIteration); a figure is run over a Session's envs,
// once per point. Setup that is not the workload (the incremental
// workload's standing-query registration) lands before the bracket;
// the fault injector is armed last, since the bracket's opening
// eviction only writes and write-backs are never faulted.
func run(sc Scenario, e *env, tr *trace.Tracer, reg *metrics.Registry) (Result, error) {
	var prep *prepared
	if sc.Workload == WorkloadIncremental {
		var err error
		if prep, err = register(e); err != nil {
			return Result{}, err
		}
	}
	e.armFaults(sc)
	e.policies = e.policies[:0]

	m, err := StartMeasurement(sc.Name, sc.Window, e.db.Device, e.db.Pool, tr)
	if err != nil {
		return Result{}, err
	}
	var before metrics.Snapshot
	if reg != nil {
		before = reg.Snapshot()
	}
	st, err := runWorkload(sc, e, reg, prep)
	if err != nil {
		m.Abort()
		return Result{}, err
	}
	res := Result{Measured: m.End(st), Stats: st}
	if reg != nil {
		res.Delta = reg.Snapshot().Delta(before)
	}
	return res, nil
}

// Session is what runs that reuse databases share: the optional
// instruments and one env per physical configuration, built on first
// use. Every run over a reused env is cold, so a point reports the
// same counters whether its database was just generated or has served
// a hundred points. Only read-only (assemble) scenarios belong here; a
// workload that mutates its database needs the fresh env the suite
// gives every iteration. The zero value is ready to use.
type Session struct {
	// Tracer, when non-nil, traces every run (see Measurement).
	Tracer *trace.Tracer
	// Metrics, when non-nil, receives every database's device and pool
	// and the operator's counters.
	Metrics *metrics.Registry
	envs    map[string]*env
}

// Run measures one scenario over the session's env for its physical
// configuration, building it if this is the configuration's first run.
func (s *Session) Run(sc Scenario) (Result, error) {
	sc = sc.withDefaults()
	e, err := s.env(sc)
	if err != nil {
		return Result{}, err
	}
	return run(sc, e, s.Tracer, s.Metrics)
}

// withDefaults is the one defaults path of a Scenario: it fills what a
// Go literal may leave zero. Session.Run and Run apply it.
func (sc Scenario) withDefaults() Scenario {
	if sc.Workload == "" {
		sc.Workload = WorkloadAssemble
	}
	if sc.Shape == "" {
		sc.Shape = ShapePaper
	}
	if sc.Backend == "" {
		sc.Backend = BackendLocal
	}
	if sc.Window < 1 {
		sc.Window = 1
	}
	return sc
}

func (s *Session) env(sc Scenario) (*env, error) {
	key := sc.label()
	if e, ok := s.envs[key]; ok {
		return e, nil
	}
	e, err := buildEnv(sc, s.Metrics)
	if err != nil {
		return nil, err
	}
	if s.envs == nil {
		s.envs = map[string]*env{}
	}
	s.envs[key] = e
	return e, nil
}

// Close releases every env the session built.
func (s *Session) Close() {
	for _, e := range s.envs {
		e.close()
	}
	s.envs = nil
}
