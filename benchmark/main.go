// Command benchmark is the repository's performance benchmark: four
// workloads that each stress a different layer of the engine, measured
// end to end with nothing attached and, in a separate pass, layer by
// layer through decorators at the engine's interface seams. README.md
// explains every metric, workload and estimator; BENCHMARK.json at the
// repository root declares them to the driver.
//
//	go run . -seed 91                      all four workloads, one after the other; full report
//	go run . -aa                           each workload twice, compared against the bounds
//	go run . -workload scan-local -seed 7 -seconds 16 -trace 0
//	                                       one workload, one JSON line (the driver's form)
//
// All three measure a workload the same way (see protocol).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// The one measurement protocol, the same under the driver, in the full
// report and under -aa: a workload's timed seconds are split over
// dataSets freshly generated databases and segmentsPerSet closed-loop
// segments on each. README.md, "Noise, estimators and bounds", says why.
const (
	dataSets       = 10
	segmentsPerSet = 8
)

type config struct {
	seed int64
	// datasets is the number of blocks the timed pass is split into,
	// each on a database of its own seed. How fast one database runs
	// depends on where its objects and the engine's structures happen
	// to land in memory — by ±10 % on deep-window — so a run that must
	// repeat across seeds measures several.
	datasets int
	segments int           // timed segments per data set
	segment  time.Duration // length of one
	layers   bool          // traced counted pass and probes, for the per-layer metrics
	traceOut string        // span file; "" keeps spans in memory only
	log      io.Writer
}

// protocol is the configuration every command-line form measures with.
func protocol(seed int64, seconds int) config {
	return config{seed: seed, datasets: dataSets, segments: segmentsPerSet,
		segment: time.Duration(seconds) * time.Second / (dataSets * segmentsPerSet), log: os.Stdout}
}

// seedOf derives the seed of data set j, so that runs with neighbouring
// seeds share no data.
func (c config) seedOf(j int) int64 {
	return c.seed*int64(c.datasets) + int64(j)
}

// report is everything measured for one workload.
type report struct {
	spec              *spec
	endToEnd, layers  metrics
	attempted, failed int
	problems          []string
	timed             *timedResult
	oracles           []*oracle // one per data set
	calibMops         float64   // the machine-speed canary's median over the run
	bd                breakdown
}

func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// measure runs the three passes over one workload: timed (nothing
// attached), counted (fixed work from cold, on envs of its own) and, for
// the per-layer metrics, probes.
func measure(s *spec, cfg config) (*report, error) {
	latCap := 1 << 14
	if s.update {
		latCap = 1 << 20 // transactions are ~50 µs: a pass holds several hundred thousand
	}
	r := &report{spec: s, endToEnd: metrics{}, layers: metrics{},
		timed: &timedResult{latencies: make([]float64, 0, latCap)}}
	for j := 0; j < cfg.datasets; j++ {
		if err := r.timedBlock(cfg, j); err != nil {
			return nil, err
		}
	}
	r.calibMops = median(r.timed.calib)
	r.timed.endToEnd(r.endToEnd)
	fmt.Fprintf(cfg.log, "%-13s set up %d× (median %.3fs, %.1f MB live); timed: %v\n",
		s.name, len(r.timed.setups), r.endToEnd["setup_s"], r.endToEnd["live_heap_mb"], r.timed)
	fmt.Fprintf(cfg.log, "%-13s machine canary, million CRC-32C/s around each set-up and segment: %.1f\n", s.name, r.timed.calib)
	if cfg.layers {
		r.timed.harness(r.layers)
	}
	if err := r.counted(cfg); err != nil {
		return nil, err
	}
	return r, nil
}

// timedBlock generates data set j, sets it up, runs its timed segments
// and tears it down. The last block's env also serves the probes.
func (r *report) timedBlock(cfg config, j int) (err error) {
	seed := cfg.seedOf(j)
	or, err := buildOracle(r.spec, seed)
	if err != nil {
		return err
	}
	r.oracles = append(r.oracles, or)
	if j == 0 {
		// The first set-up in a process also pays for growing the Go
		// heap; that is the runtime's cost, not the engine's.
		e, err := setup(r.spec, seed, or, &timedResult{})
		if err != nil {
			return err
		}
		if err := e.close(); err != nil {
			return err
		}
	}
	// A single reading of set-up time swings by a quarter; the run
	// reports the median over its data sets.
	e, err := setup(r.spec, seed, or, r.timed)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, e.close()) }()
	for i := 0; i < cfg.segments; i++ {
		if err := runSegment(e, j, cfg.segment, r.timed); err != nil {
			return err
		}
	}
	r.attempted += e.attempted
	r.failed += e.failed
	if cfg.layers && j == cfg.datasets-1 {
		return probe(e, r.layers)
	}
	return nil
}

// counted runs the counted pass on every data set, untraced, for the
// end-to-end counts, and once more on the first data set with the
// decorators on for the per-layer metrics.
func (r *report) counted(cfg config) error {
	var sum countedResult
	for j, or := range r.oracles {
		c, err := countedPass(r.spec, cfg.seedOf(j), or, false)
		if err != nil {
			return err
		}
		sum.add(c)
	}
	sum.endToEnd(r.endToEnd)
	r.attempted += sum.attempted
	r.failed += sum.failed
	r.problems = append(r.problems, sum.problems...)
	fmt.Fprintf(cfg.log, "%-13s counted: %d objects, %d device reads over %d data sets\n",
		r.spec.name, sum.objects, sum.dev.Reads, len(r.oracles))
	for _, p := range r.endToEnd.missing(endToEndDefs) {
		r.problems = append(r.problems, r.spec.name+": "+p)
	}
	if !cfg.layers {
		return nil
	}
	c, err := countedPass(r.spec, cfg.seedOf(0), r.oracles[0], true)
	if err != nil {
		return err
	}
	r.attempted += c.attempted
	r.failed += c.failed
	r.problems = append(r.problems, c.problems...)
	c.layers(r.layers)
	r.bd = c.bd
	r.layers.set("harness.trace_overhead_pct", 100*(c.tracedUsPerObject/r.timed.usPerObject()-1))
	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, r.spec.name, c.spans); err != nil {
			return err
		}
	}
	r.checkLayers()
	return nil
}

// checkLayers demands the declared per-layer set, and silence from the
// layers this workload does not have.
func (r *report) checkLayers() {
	s := r.spec
	var silent []string
	if !s.sharded {
		silent = append(silent, "pagesvc.", "shard.")
	}
	if s.update {
		silent = append(silent, "assembly.")
	} else {
		silent = append(silent, "wal.", "object.store_")
	}
	bad := append(r.layers.missing(perLayerDefs), r.layers.zeroOutside(silent...)...)
	for _, p := range bad {
		r.problems = append(r.problems, s.name+": "+p)
	}
}

func (r *report) print(w io.Writer, layers bool) {
	fmt.Fprintf(w, "\n== %s ==  queries attempted %d, failed %d\n", r.spec.name, r.attempted, r.failed)
	fmt.Fprintf(w, " end to end:\n")
	r.endToEnd.print(w, endToEndDefs)
	if layers {
		fmt.Fprintf(w, " per layer (query wall %v = sched %v + io %v + operator %v):\n",
			time.Duration(r.bd.wall), time.Duration(r.bd.sched), time.Duration(r.bd.io), time.Duration(r.bd.rootSelf))
		r.layers.print(w, perLayerDefs)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, " PROBLEM %s\n", p)
	}
}

// aa measures every given workload twice back to back in this process,
// exactly as the driver's form does, and compares every workload ×
// end-to-end metric against its bound.
func aa(ws []*spec, cfg config, out io.Writer) (ok bool, err error) {
	ok = true
	fmt.Fprintf(out, "%-13s %-24s %14s %14s %8s %8s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for _, s := range ws {
		var sets [2]*report
		for i := range sets {
			if sets[i], err = measure(s, cfg); err != nil {
				return false, err
			}
		}
		a, b := sets[0], sets[1]
		for _, d := range endToEndDefs {
			x, y := a.endToEnd[d.name], b.endToEnd[d.name]
			diff, verdict := relDiff(x, y), ""
			switch {
			case diff > bounds[d.name]:
				ok, verdict = false, "  BREACH"
			case diff != 0 && exactAtOneSeed[d.name] && !s.sharded:
				// The bound covers the spread across the driver's seeds;
				// at one seed the fixed work must repeat to the last read.
				ok, verdict = false, "  NOT EXACT"
			}
			fmt.Fprintf(out, "%-13s %-24s %14.6g %14.6g %7.2f%% %7.0f%%%s\n",
				s.name, d.name, x, y, 100*diff, 100*bounds[d.name], verdict)
		}
		for _, r := range sets {
			if !r.correct() {
				ok = false
				r.print(out, false)
			}
		}
		if d := relDiff(a.calibMops, b.calibMops); d > 0.05 {
			fmt.Fprintf(out, "MACHINE DRIFT on %s: harness.calib_mops %.3f vs %.3f (%.1f%%); its timing differences are the box's, not the code's\n",
				s.name, a.calibMops, b.calibMops, 100*d)
		}
	}
	return ok, nil
}

// options are the command line.
type options struct {
	workload       string
	seed           int64
	seconds, trace int
	aa             bool
	traceOut       string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and end with one JSON line (the driver's form); empty runs all four, one after the other")
	flag.Int64Var(&o.seed, "seed", 91, "seed all generated data and the update key sequence derive from")
	flag.IntVar(&o.seconds, "seconds", 16, "timed seconds per workload")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	flag.BoolVar(&o.aa, "aa", false, "measure each workload twice back to back and hold the two runs to the bounds")
	flag.StringVar(&o.traceOut, "trace-out", "", "file the traced pass's spans are written to (default: a temp file)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 || flag.NArg() > 0 {
		return fmt.Errorf("bad arguments; see -help")
	}
	ws := specs
	if o.workload != "" {
		s := specByName(o.workload)
		if s == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		ws = []*spec{s}
	}
	cfg := protocol(o.seed, o.seconds)
	fmt.Printf("benchmark: seed %d, %s, nproc %d, GOMAXPROCS %d\n", o.seed, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))

	if o.aa {
		ok, err := aa(ws, cfg, os.Stdout)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("two runs of the same code disagree by more than the bounds")
		}
		return nil
	}

	// The full report carries the per-layer tables; the driver's form
	// pays for the traced pass and the probes only when it asks for them.
	cfg.layers = o.workload == "" || o.trace == 1
	if cfg.layers {
		f, err := spanFile(o.traceOut)
		if err != nil {
			return err
		}
		cfg.traceOut = f
		fmt.Printf("spans: %s\n", f)
	}
	var reports []*report
	for _, s := range ws {
		r, err := measure(s, cfg)
		if err != nil {
			return err
		}
		reports = append(reports, r)
	}
	allCorrect := true
	for _, r := range reports {
		r.print(os.Stdout, cfg.layers)
		allCorrect = allCorrect && r.correct()
	}
	if o.workload != "" {
		r := reports[0]
		res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed}
		if o.trace == 1 {
			return res.write(os.Stdout, r.layers, perLayerDefs)
		}
		return res.write(os.Stdout, r.endToEnd, endToEndDefs)
	}
	if !allCorrect {
		return fmt.Errorf("verification failed; see PROBLEM lines above")
	}
	return nil
}

// spanFile truncates (or creates) the span file and returns its path.
func spanFile(path string) (string, error) {
	var f *os.File
	var err error
	if path == "" {
		f, err = os.CreateTemp("", "benchmark-spans-*.txt")
	} else {
		f, err = os.Create(path)
	}
	if err != nil {
		return "", err
	}
	return f.Name(), f.Close()
}
