// Command asmsuite runs the continuous scenario suite: named benchmark
// scenarios — OO7-style shapes, time-series appends, standing-query
// incremental re-assembly, fault injection, remote page service —
// declared in internal/suite's table (suite.Scenarios), measured through
// the shared bench measurement core, three-way verified (harness
// counters == trace replay == metrics registry delta), and written as a
// schema-versioned BENCH_<suite>.json trajectory.
//
// Usage:
//
//	asmsuite [-suite core] [-out FILE] [-iters N] [-list] [-v]
//
// -suite selects the scenario subset (each scenario declares which
// suites it belongs to; "core" is the tracked trajectory, "smoke" the
// CI gate). -out defaults to BENCH_<suite>.json in the current
// directory; "-" writes to stdout. -iters sets every scenario's
// measured iteration count (default 3; 1 for quick local runs). -list
// prints the selected scenarios without running them.
package main

import (
	"flag"
	"fmt"
	"os"

	"revelation/internal/suite"
)

func main() {
	suiteName := flag.String("suite", "core", "suite to run (scenario subset)")
	out := flag.String("out", "", "output file (default BENCH_<suite>.json; '-' for stdout)")
	iters := flag.Int("iters", 0, "measured iterations per scenario (0 = 3)")
	list := flag.Bool("list", false, "list the selected scenarios and exit")
	verbose := flag.Bool("v", false, "print one progress line per scenario")
	flag.Parse()

	scenarios := suite.Scenarios()

	if *list {
		n := 0
		for _, sc := range scenarios {
			if !sc.InSuite(*suiteName) {
				continue
			}
			n++
			fmt.Printf("%-32s %-11s shape=%-7s sched=%-13s backend=%-8s window=%-4d objects=%d\n",
				sc.Name, sc.Workload, sc.Shape, sc.Scheduler, sc.Backend, sc.Window, sc.Objects)
		}
		if n == 0 {
			fatal(fmt.Errorf("no scenarios in suite %q", *suiteName))
		}
		return
	}

	opt := suite.RunOptions{Suite: *suiteName, Iters: *iters}
	if *verbose {
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

	dest := *out
	if dest == "" {
		dest = fmt.Sprintf("BENCH_%s.json", *suiteName)
	}
	if dest == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(dest, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: %d scenarios, all three-way verified\n", dest, len(rep.Scenarios))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "asmsuite:", err)
	os.Exit(1)
}
