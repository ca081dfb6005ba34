package suite

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"revelation/internal/assembly"
	"revelation/internal/gen"
	"revelation/internal/metrics"
	"revelation/internal/trace"
)

// TestThreeWayAgreement is the subsystem's capstone invariant: for a
// traced, metered run, three independent accountings must agree exactly
// — the harness counters (Result / the end-of-run marker), the trace
// replay reconstruction, and the metrics registry's snapshot delta.
// The trace-vs-harness leg is Run.Verify; this test adds the registry
// leg by rebuilding the run's RunStats from registry deltas it takes
// itself, around a run over a reused env.
func TestThreeWayAgreement(t *testing.T) {
	col := trace.NewCollector()
	reg := metrics.NewRegistry()
	s := Session{Tracer: trace.New(col), Metrics: reg}

	sc := Scenario{
		Name:       "threeway",
		Objects:    120,
		Clustering: gen.Unclustered,
		Scheduler:  assembly.Elevator,
		Window:     20,
		Seed:       figureSeed,
	}
	// A first run builds and registers the database, so the second run's
	// registry delta covers exactly that run (the build I/O and the
	// first run's activity land before the `before` snapshot, and
	// nothing is dirty in the pool when the second run starts cold).
	if _, err := s.Run(sc); err != nil {
		t.Fatal(err)
	}
	before := reg.Snapshot()
	res, err := s.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	d := reg.Snapshot().Delta(before)

	// Leg 1: trace replay == harness-reported counters.
	runs := trace.SplitRuns(col.Events())
	if len(runs) != 2 {
		t.Fatalf("trace has %d runs, want 2", len(runs))
	}
	run := runs[1]
	if run.Reported == nil {
		t.Fatal("second run has no end marker")
	}
	if _, err := run.Verify(); err != nil {
		t.Fatalf("trace replay disagrees with harness: %v", err)
	}

	// Leg 2: registry delta == harness-reported counters.
	label := sc.withDefaults().label()
	policy := sc.Scheduler.String()
	fromRegistry := trace.RunStats{
		Reads:     d.Value("asm_disk_reads_total", "dev", label),
		SeekReads: d.Value("asm_disk_read_seek_pages_total", "dev", label),
		SeekTotal: d.Value("asm_disk_seek_pages_total", "dev", label),
		Assembled: int(d.Value("asm_assembly_assembled_total", "policy", policy)),
		Aborted:   int(d.Value("asm_assembly_aborted_total", "policy", policy)),
		Skipped:   int(d.Value("asm_assembly_skipped_total", "policy", policy)),
		Retries:   int(d.Value("asm_assembly_fault_retries_total", "policy", policy)),
		Stalls:    int(d.Value("asm_assembly_window_stalls_total", "policy", policy)),
	}
	if fromRegistry != *run.Reported {
		t.Errorf("registry delta disagrees with harness:\nregistry %+v\nharness  %+v",
			fromRegistry, *run.Reported)
	}

	// And the harness result itself must match both (spot checks; the
	// RunStats equality above covers the rest).
	if res.Dev.Reads != fromRegistry.Reads {
		t.Errorf("result reads %d != registry reads %d", res.Dev.Reads, fromRegistry.Reads)
	}
	if res.Stats.Assembled != fromRegistry.Assembled {
		t.Errorf("result assembled %d != registry assembled %d", res.Stats.Assembled, fromRegistry.Assembled)
	}
	// Buffer accounting: pool hits+misses deltas must match the result.
	hits := d.Value("asm_buffer_hits_total", "pool", label)
	misses := d.Value("asm_buffer_misses_total", "pool", label)
	if hits != res.Pool.Hits || misses != res.Pool.Faults {
		t.Errorf("registry pool hits/misses %d/%d != result %d/%d",
			hits, misses, res.Pool.Hits, res.Pool.Faults)
	}
	// The delta run takes inside the bracket is the same one.
	if got := res.Delta.Value("asm_disk_reads_total", "dev", label); got != fromRegistry.Reads {
		t.Errorf("Result.Delta reads %d != registry reads %d", got, fromRegistry.Reads)
	}
}

// TestThreeWayAgreementFaults extends the invariant to the faulty
// sweep: every point goes through run's bracket (no counter resets, end
// markers derived from device deltas), so verifying every traced run
// against its replay closes the triangle; TestFigureRunScrapeConsistent
// adds the registry leg.
func TestThreeWayAgreementFaults(t *testing.T) {
	col := trace.NewCollector()
	s := Session{Tracer: trace.New(col), Metrics: metrics.NewRegistry()}

	fig, err := s.Figure("faults", FigureParams{Scale: 0.1, Faults: DefaultFaultOptions})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) == 0 {
		t.Fatal("faults figure has no series")
	}
	runs := trace.SplitRuns(col.Events())
	verified := 0
	for _, run := range runs {
		if run.Reported == nil {
			t.Errorf("run %q has no end marker", run.Name)
			continue
		}
		if _, err := run.Verify(); err != nil {
			t.Errorf("run %q: %v", run.Name, err)
			continue
		}
		verified++
	}
	if verified < 8 { // two policies x four sweep points
		t.Errorf("verified %d runs, want at least 8", verified)
	}
}

// TestFigureRunScrapeConsistent pins the scraper-facing contract of a
// figure run: counters are never reset mid-sweep, so a concurrent
// scraper sees every counter stay monotone, and the sweep's total
// registry delta — summed over the dev labels of every database the
// figure generated — equals the sum of the per-run reported deltas: no
// run's activity is double-counted, dropped between brackets, or hidden
// behind another database's label. The inputs cover one database under
// a fault injector, four databases differing only in buffer size, and
// four striped devices registering one series per arm.
func TestFigureRunScrapeConsistent(t *testing.T) {
	for _, id := range []string{"faults", "buffer-window", "multi-device"} {
		t.Run(id, func(t *testing.T) {
			col := trace.NewCollector()
			reg := metrics.NewRegistry()
			s := Session{Tracer: trace.New(col), Metrics: reg}

			before := reg.Snapshot()
			if _, err := s.Figure(id, FigureParams{Scale: 0.1, Faults: DefaultFaultOptions}); err != nil {
				t.Fatal(err)
			}
			d := reg.Snapshot().Delta(before)

			// Monotone: every counter's delta over the sweep is
			// non-negative (gauges — head position, occupancy — move
			// both ways).
			for k, v := range d {
				if name, _, _ := strings.Cut(k, "{"); strings.HasSuffix(name, "_total") && v < 0 {
					t.Errorf("%s went backwards over the sweep: delta %d", k, v)
				}
			}

			// Sum of per-run reported reads == the registry's total
			// delta: the measurement brackets partition the sweep's read
			// activity exactly (pool evictions between points write back
			// dirty pages but never read, so no I/O falls outside a
			// bracket).
			var reported int64
			for _, run := range trace.SplitRuns(col.Events()) {
				if run.Reported == nil {
					t.Fatalf("run %q has no end marker", run.Name)
				}
				if _, err := run.Verify(); err != nil {
					t.Errorf("run %q: %v", run.Name, err)
				}
				reported += run.Reported.Reads
			}
			if reported == 0 {
				t.Fatal("the sweep reported no reads")
			}
			if got := d.Sum("asm_disk_reads_total"); got != reported {
				t.Errorf("registry reads delta %d != sum of per-run reported reads %d", got, reported)
			}
		})
	}
}

// TestFigureIDsDocumented keeps the one list of figures from drifting:
// the ids in README's command reference and in DESIGN.md §4's
// experiment index must be exactly the registry's.
func TestFigureIDsDocumented(t *testing.T) {
	want := strings.Join(FigureIDs(), " ")
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		src, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		const open, shut = "<!-- figure-ids -->", "<!-- /figure-ids -->"
		_, rest, ok := strings.Cut(string(src), open)
		block, _, ok2 := strings.Cut(rest, shut)
		if !ok || !ok2 {
			t.Errorf("%s: no %s … %s block", doc, open, shut)
			continue
		}
		// The ids are the block's backquoted words, in order.
		var got []string
		for i, part := range strings.Split(block, "`") {
			if i%2 == 1 {
				got = append(got, part)
			}
		}
		if strings.Join(got, " ") != want {
			t.Errorf("%s lists figures\n  %s\nthe registry has\n  %s", doc, strings.Join(got, " "), want)
		}
	}
}
