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
package main

import (
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
	flag.Parse()

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
			fmt.Fprintf(os.Stderr, "asmbench: %v\n", err)
			os.Exit(1)
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
		fmt.Fprintf(os.Stderr, "asmbench: %v\n", err)
		os.Exit(1)
	}
	if traceSink != nil {
		if cerr := traceSink.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "asmbench: trace: %v\n", cerr)
			os.Exit(1)
		}
	}
	if *jsonOut {
		out, jerr := suite.FiguresJSON(figs)
		if jerr != nil {
			fmt.Fprintf(os.Stderr, "asmbench: %v\n", jerr)
			os.Exit(1)
		}
		os.Stdout.Write(out)
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
