// Command asmbench regenerates the evaluation of "Efficient Assembly
// of Complex Objects" (Keller, Graefe, Maier, SIGMOD 1991): every
// figure of Section 6 plus this reproduction's ablations, printed as
// text tables.
//
// Usage:
//
//	asmbench [-figure all|<id>] [-scale 1.0] [-json] [-trace FILE]
//	         [-fault-seed 91] [-fault-transient 0.10] [-fault-permanent 0.005]
//	         [-concurrency 8] [-deadline 0]
//
// The figure ids come from the harness's registry (internal/suite);
// asmbench -h lists them. -scale shrinks the database sizes for quick
// runs (0.1 → 100–400 complex objects); 1.0 reproduces the paper's
// 1000–4000. The -fault-* flags parameterise the 'faults' figure: the
// injector seed and the sweep's maximum transient and permanent fault
// rates.
//
// The 'concurrency' figure sweeps concurrent queries (1, 2, 4, ... up
// to -concurrency) over one shared pool with per-query reservations and
// the optional per-query -deadline, reporting wall-clock throughput; it
// is excluded from 'all' because its timing is nondeterministic.
//
// -json prints the figures as deterministic JSON instead of text tables
// (the schema the golden-file test pins). -trace FILE records every
// run's disk, buffer, and assembly events as JSONL; replay the file
// with cmd/asmtrace to reconstruct — and verify — the reported numbers.
//
// The same command runs the continuous scenario suite: named benchmark
// scenarios — OO7-style shapes, time-series appends, standing-query
// incremental re-assembly, fault injection, remote page service —
// declared in internal/suite's table (suite.Scenarios), three-way
// verified (harness counters == trace replay == metrics registry delta),
// and written as a schema-versioned BENCH_<suite>.json trajectory:
//
//	asmbench -suite core|smoke [-out FILE] [-iters N] [-list] [-v]
//
// -suite selects the scenario subset (each scenario declares which
// suites it belongs to; "core" is the tracked trajectory, "smoke" the
// CI gate); the figure flags are then ignored. -out defaults to
// BENCH_<suite>.json in the current directory; "-" writes to stdout.
// -iters sets every scenario's measured iteration count (default 3).
// -list prints the selected scenarios (of "core" when -suite is not
// given) without running them. -v prints one progress line per scenario.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"revelation/internal/suite"
	"revelation/internal/trace"
)

func main() {
	ids := strings.Join(suite.FigureIDs(), ", ")
	figure := flag.String("figure", "all", "figure id to regenerate ("+ids+"), or 'all'")
	scale := flag.Float64("scale", 1.0, "database size scale factor (1.0 = paper scale)")
	jsonOut := flag.Bool("json", false, "print figures as deterministic JSON instead of text tables")
	traceFile := flag.String("trace", "", "record per-event JSONL trace of every run to this file (replay with asmtrace)")
	faultSeed := flag.Int64("fault-seed", suite.DefaultFaultOptions.Seed, "fault injector seed (figure 'faults')")
	faultTransient := flag.Float64("fault-transient", suite.DefaultFaultOptions.Transient, "maximum transient-fault rate for the sweep (figure 'faults')")
	faultPermanent := flag.Float64("fault-permanent", suite.DefaultFaultOptions.Permanent, "maximum permanent-fault rate for the sweep (figure 'faults')")
	concurrency := flag.Int("concurrency", 8, "maximum concurrent queries for the 'concurrency' figure (sweep doubles up from 1)")
	deadline := flag.Duration("deadline", 0, "per-query deadline for the 'concurrency' figure (0 = unbounded)")
	suiteName := flag.String("suite", "", "run this scenario suite (core, smoke) instead of figures")
	out := flag.String("out", "", "suite output file (default BENCH_<suite>.json; '-' for stdout)")
	iters := flag.Int("iters", 0, "measured iterations per suite scenario (0 = 3)")
	list := flag.Bool("list", false, "list the suite's scenarios (default suite core) and exit")
	verbose := flag.Bool("v", false, "print one progress line per suite scenario")
	flag.Parse()

	if *suiteName != "" || *list {
		runSuite(cmp.Or(*suiteName, "core"), *out, *iters, *list, *verbose)
		return
	}

	id := strings.ToLower(*figure)
	if id != "all" {
		if err := suite.CheckFigure(id); err != nil {
			fmt.Fprintf(os.Stderr, "asmbench: %v\n", err)
			os.Exit(2)
		}
	}
	params := suite.FigureParams{
		Scale:       *scale,
		Faults:      suite.FaultOptions{Seed: *faultSeed, Transient: *faultTransient, Permanent: *faultPermanent},
		Concurrency: suite.ConcurrencyOptions{MaxConcurrent: *concurrency, Deadline: *deadline},
	}

	var s suite.Session
	defer s.Close()
	var traceSink *trace.Writer
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fatal(err)
		}
		traceSink = trace.NewWriter(f)
		s.Tracer = trace.New(traceSink)
	}
	start := time.Now()
	var figs []suite.Figure
	var err error
	if id == "all" {
		figs, err = s.AllFigures(params)
	} else {
		figs = make([]suite.Figure, 1)
		figs[0], err = s.Figure(id, params)
	}
	if err != nil {
		fatal(err)
	}
	if traceSink != nil {
		if err := traceSink.Close(); err != nil {
			fatal(fmt.Errorf("trace: %w", err))
		}
	}
	if *jsonOut {
		data, err := suite.FiguresJSON(figs)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
		return
	}
	for _, f := range figs {
		fmt.Println(f.Table())
	}
	fmt.Printf("completed in %v (scale %.2f)\n", time.Since(start).Round(time.Millisecond), *scale)
	if *traceFile != "" {
		fmt.Printf("trace written to %s (replay: go run ./cmd/asmtrace %s)\n", *traceFile, *traceFile)
	}
}

// runSuite lists or runs the scenarios of suite name and writes the
// report to out.
func runSuite(name, out string, iters int, list, verbose bool) {
	scenarios := suite.Scenarios()
	if list {
		n := 0
		for _, sc := range scenarios {
			if !sc.InSuite(name) {
				continue
			}
			n++
			fmt.Printf("%-32s %-11s shape=%-7s sched=%-13s backend=%-8s window=%-4d objects=%d\n",
				sc.Name, sc.Workload, sc.Shape, sc.Scheduler, sc.Backend, sc.Window, sc.Objects)
		}
		if n == 0 {
			fatal(fmt.Errorf("no scenarios in suite %q", name))
		}
		return
	}

	opt := suite.RunOptions{Suite: name, Iters: iters}
	if verbose {
		opt.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	rep, err := suite.Run(scenarios, opt)
	if err != nil {
		fatal(err)
	}
	data, err := rep.JSON()
	if err != nil {
		fatal(err)
	}
	if out == "" {
		out = fmt.Sprintf("BENCH_%s.json", name)
	}
	if out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: %d scenarios, all three-way verified\n", out, len(rep.Scenarios))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "asmbench:", err)
	os.Exit(1)
}
