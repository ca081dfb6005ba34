package suite

import (
	"fmt"

	"revelation/internal/assembly"
	"revelation/internal/metrics"
	"revelation/internal/trace"
)

// RunOptions tunes a suite execution.
type RunOptions struct {
	// Suite selects which scenarios run (Scenario.Suites membership).
	Suite string
	// Iters is every scenario's measured iteration count (default 3),
	// run after one warm-up iteration.
	Iters int
	// Logf, when non-nil, receives one progress line per scenario.
	Logf func(format string, args ...any)
}

// warmup is the number of unreported iterations before the measured ones.
const warmup = 1

// Run executes every scenario belonging to opt.Suite and returns the
// report. Every scenario must pass validate; every iteration of every
// scenario is three-way verified — harness counters against the trace
// replay against the metrics registry delta — and iterations are
// cross-checked for determinism; any disagreement fails the run.
func Run(all []Scenario, opt RunOptions) (*Report, error) {
	if opt.Suite == "" {
		opt.Suite = "core"
	}
	if opt.Iters < 1 {
		opt.Iters = 3
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := &Report{Schema: SchemaVersion, Suite: opt.Suite}
	matched := 0
	for _, sc := range all {
		if !sc.InSuite(opt.Suite) {
			continue
		}
		matched++
		sc = sc.withDefaults()
		if err := sc.validate(); err != nil {
			return nil, err
		}
		res, err := runScenario(sc, opt.Iters)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		logf("%-32s %-11s ops=%-5d reads=%-6d avgseek=%7.1f",
			sc.Name, sc.Workload, res.Ops, res.Reads, res.AvgSeek)
		rep.Scenarios = append(rep.Scenarios, res)
	}
	if matched == 0 {
		return nil, fmt.Errorf("no scenarios in suite %q", opt.Suite)
	}
	rep.sortScenarios()
	return rep, nil
}

// runScenario executes warmup + iters iterations. The counters of every
// iteration (warmup included) must be identical; they are the result.
func runScenario(sc Scenario, iters int) (ScenarioResult, error) {
	var d Counters
	for i := 0; i < warmup+iters; i++ {
		it, err := runIteration(sc)
		if err != nil {
			return ScenarioResult{}, fmt.Errorf("iteration %d: %w", i, err)
		}
		if i == 0 {
			d = it
		} else if it != d {
			return ScenarioResult{}, fmt.Errorf(
				"iteration %d not deterministic:\n  first %+v\n  now   %+v", i, d, it)
		}
	}
	return ScenarioResult{
		Name:       sc.Name,
		Workload:   string(sc.Workload),
		Shape:      string(sc.Shape),
		Scheduler:  sc.Scheduler.String(),
		Backend:    string(sc.Backend),
		Clustering: sc.Clustering.String(),
		Window:     sc.Window,
		Objects:    sc.Objects,
		Seed:       sc.Seed,
		Iters:      iters,
		Counters:   d,
		Verified:   true,
	}, nil
}

// runIteration builds a fresh environment, measures one execution of
// the workload through run, and three-way verifies it.
func runIteration(sc Scenario) (Counters, error) {
	col := trace.NewCollector()
	tr := trace.New(col)
	reg := metrics.NewRegistry()
	e, err := buildEnv(sc, reg)
	if err != nil {
		return Counters{}, err
	}
	defer e.close()

	res, err := run(sc, e, tr, reg)
	if err != nil {
		return Counters{}, err
	}
	got, st := res.Measured, res.Stats

	// Leg 1: the trace replay must reconstruct exactly the counters the
	// harness reported in the end-of-run marker.
	var traced *trace.Run
	for _, r := range trace.SplitRuns(col.Events()) {
		if r.Name == sc.Name {
			rr := r
			traced = &rr
		}
	}
	if traced == nil || traced.Reported == nil {
		return Counters{}, fmt.Errorf("trace has no completed run %q", sc.Name)
	}
	replay, err := traced.Verify()
	if err != nil {
		return Counters{}, fmt.Errorf("trace replay disagrees with harness: %w", err)
	}
	if int(replay.PagesMigrated) != e.migrated {
		return Counters{}, fmt.Errorf("trace replay counted %d migrated pages, migrator reported %d",
			replay.PagesMigrated, e.migrated)
	}

	// Leg 2: the metrics registry's delta over the measured phase must
	// agree with the same counters.
	if err := verifyRegistry(sc, e, res.Delta, got, st); err != nil {
		return Counters{}, err
	}
	// And the two event-fed legs agree with each other exactly: the
	// tracer is attached to every client the registry counts, from the
	// bracket's start — a member that joins mid-run included — so each
	// send, recv and page is in both or in neither.
	if len(e.netLabels) > 0 {
		sends, recvs, pages := e.netDelta(res.Delta)
		if sends != replay.NetSends || recvs != replay.NetRecvs || pages != replay.NetPages {
			return Counters{}, fmt.Errorf("trace replay disagrees with registry: net sends/recvs/pages %d/%d/%d, registry %d/%d/%d",
				replay.NetSends, replay.NetRecvs, replay.NetPages, sends, recvs, pages)
		}
	}

	return Counters{
		Ops:             st.Assembled,
		Reads:           got.Dev.Reads,
		SeekReads:       got.Dev.SeekReads,
		SeekTotal:       got.Dev.SeekTotal,
		AvgSeek:         got.Dev.AvgSeekPerRead(),
		BufferHits:      got.Pool.Hits,
		BufferMisses:    got.Pool.Faults,
		Assembled:       st.Assembled,
		Aborted:         st.Aborted,
		Skipped:         st.Skipped,
		Retries:         st.FaultRetries,
		Stalls:          st.WindowStalls,
		PeakWindow:      replay.PeakWindow,
		PeakWindowPages: st.PeakWindowPgs,
		Migrated:        e.migrated,
	}, nil
}

// netAgrees is the net leg of the three-way check, applied to the
// registry's counters; the trace replay must then equal the registry's
// exactly (runIteration), so it needs no check of its own. In a fault-free
// run every request is answered, and the answered requests carry every
// logical page access exactly once between them — a page read or write
// carries one, a run of pages read in one frame as many as it has: the
// router never duplicates or drops an access. On a fleet every member
// client counts its own; the sums are what is passed in. The migrator's
// direct installs on the joiner are page accesses too (the router's
// stats sum every member's device, routed or not); the one request of a
// reshard that carries no page is the join's Allocate RPC growing the
// joiner to the fleet's extent.
func netAgrees(sc Scenario, got Measured, sends, recvs, pages int64) error {
	accesses := got.Dev.Reads + got.Dev.Writes
	most := accesses
	if sc.Workload == WorkloadReshard {
		most++
	}
	if pages != accesses || sends != recvs || sends > most {
		return fmt.Errorf("registry disagrees with harness: net sends/recvs %d/%d carrying %d pages, page accesses %d",
			sends, recvs, pages, accesses)
	}
	return nil
}

// netDelta sums the registry delta's net sends, recvs and pages over
// the env's page-service clients.
func (e *env) netDelta(d metrics.Snapshot) (sends, recvs, pages int64) {
	for _, lbl := range e.netLabels {
		sends += d.Value("asm_net_sends_total", "dev", lbl)
		recvs += d.Value("asm_net_recvs_total", "dev", lbl)
		pages += d.Value("asm_net_pages_total", "dev", lbl)
	}
	return sends, recvs, pages
}

// verifyRegistry is the registry leg of the three-way check: assembly,
// buffer and disk counters on every backend (every leaf device, the
// page-service client included, exports its arm), plus the clients' net
// counters on the networked ones (see netAgrees).
func verifyRegistry(sc Scenario, e *env, d metrics.Snapshot, got Measured, st assembly.Stats) error {
	// Every policy label the run's operators booked under (see
	// env.policies).
	booked := func(name string) (n int64) {
		for _, p := range e.policies {
			n += d.Value(name, "policy", p)
		}
		return n
	}
	for _, c := range []struct {
		name string
		reg  int64
		want int64
	}{
		{"asm_assembly_assembled_total", booked("asm_assembly_assembled_total"), int64(st.Assembled)},
		{"asm_assembly_aborted_total", booked("asm_assembly_aborted_total"), int64(st.Aborted)},
		{"asm_assembly_skipped_total", booked("asm_assembly_skipped_total"), int64(st.Skipped)},
		{"asm_assembly_fault_retries_total", booked("asm_assembly_fault_retries_total"), int64(st.FaultRetries)},
		{"asm_assembly_window_stalls_total", booked("asm_assembly_window_stalls_total"), int64(st.WindowStalls)},
		{"asm_buffer_hits_total", d.Value("asm_buffer_hits_total", "pool", e.label), got.Pool.Hits},
		{"asm_buffer_misses_total", d.Value("asm_buffer_misses_total", "pool", e.label), got.Pool.Faults},
	} {
		if c.reg != c.want {
			return fmt.Errorf("registry disagrees with harness: %s delta %d, harness %d", c.name, c.reg, c.want)
		}
	}
	if len(e.netLabels) > 0 {
		sends, recvs, pages := e.netDelta(d)
		if err := netAgrees(sc, got, sends, recvs, pages); err != nil {
			return err
		}
		if sc.Workload == WorkloadReshard {
			if reg := d.Value("asm_fleet_pages_migrated_total"); reg != int64(e.migrated) {
				return fmt.Errorf("registry disagrees with harness: asm_fleet_pages_migrated_total %d, migrator reported %d", reg, e.migrated)
			}
		}
	}
	for _, c := range []struct {
		name string
		want int64
	}{
		{"asm_disk_reads_total", got.Dev.Reads},
		{"asm_disk_read_seek_pages_total", got.Dev.SeekReads},
		{"asm_disk_seek_pages_total", got.Dev.SeekTotal},
	} {
		// Summed over dev labels: a striped extent or a fleet registers
		// one series per arm, everything else exactly one.
		if reg := d.Sum(c.name); reg != c.want {
			return fmt.Errorf("registry disagrees with harness: %s delta %d, harness %d", c.name, reg, c.want)
		}
	}
	return nil
}
