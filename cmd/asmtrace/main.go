// Command asmtrace replays a JSONL event trace recorded by asmbench
// (or any trace.Writer) and reconstructs, from the events alone, the
// quantities the paper's Section 6 evaluation reports: per-policy seek
// distance and read counts, window occupancy over time, and a
// flamegraph-style per-layer event summary.
//
// When a trace carries bench run markers, every run's reconstruction is
// verified against the counters the harness reported at the time; any
// mismatch makes the tool exit non-zero. That is the observability
// contract: a traced benchmark is a self-checking experiment.
//
// Usage:
//
//	asmtrace [-occupancy] [-hist] [-summary] [-q] [-query <id>] trace.jsonl
//
// With no selection flags everything is printed. -q suppresses
// per-run detail and prints only the verification verdict.
//
// -query filters the replay to the events attributed to one query id
// (events carry qid since protocol v2 of the tracing layer) and prints
// that query's reconstruction alone: what it read, how far its reads
// seeked, what it assembled, and its per-layer event census. Run
// markers are global, so per-query mode skips run verification.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"revelation/internal/trace"
)

func main() {
	occupancy := flag.Bool("occupancy", false, "print window occupancy over time per run")
	hist := flag.Bool("hist", false, "print the seek-distance histogram per run")
	summary := flag.Bool("summary", false, "print the per-layer event summary per run")
	quiet := flag.Bool("q", false, "only verify: print one verdict line per run")
	queryID := flag.Uint64("query", 0, "replay only the events attributed to this query id")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: asmtrace [-occupancy] [-hist] [-summary] [-q] [-query <id>] trace.jsonl")
		os.Exit(2)
	}
	// No selection flags: print everything.
	all := !*occupancy && !*hist && !*summary
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "asmtrace: %v\n", err)
		os.Exit(1)
	}
	events, err := trace.ReadAll(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "asmtrace: %v\n", err)
		os.Exit(1)
	}
	if *queryID != 0 {
		replayQuery(events, *queryID, *hist, *occupancy)
		return
	}
	runs := trace.SplitRuns(events)
	if len(runs) == 0 {
		fmt.Println("asmtrace: empty trace")
		return
	}

	fmt.Printf("%-42s %8s %8s %10s %9s %6s %5s  %s\n",
		"run", "events", "reads", "seek", "avg-seek", "asm", "skip", "verify")
	failures := 0
	var details strings.Builder
	for _, run := range runs {
		r, verr := run.Verify()
		verdict := "ok"
		switch {
		case run.Reported == nil:
			verdict = "unverified (no end marker)"
		case verr != nil:
			verdict = "MISMATCH"
			failures++
		}
		name := run.Name
		if name == "" {
			name = "(unnamed)"
		}
		fmt.Printf("%-42s %8d %8d %10d %9.1f %6d %5d  %s\n",
			name, r.Events, r.Reads, r.SeekReads, r.AvgSeekPerRead(),
			r.Assembled, r.Quarantined, verdict)
		if verr != nil {
			fmt.Printf("  %v\n", verr)
		}
		if *quiet {
			continue
		}
		if all || *summary {
			fmt.Fprintf(&details, "--- %s: layers ---\n%s", name, indent(r.Summary()))
		}
		if all || *hist {
			fmt.Fprintf(&details, "--- %s: seek distances ---\n%s", name, indent(r.SeekHist.String()))
		}
		if all || *occupancy {
			fmt.Fprintf(&details, "--- %s: window ---\n%s", name, indent(r.OccupancyTable(72)))
		}
	}
	if details.Len() > 0 {
		fmt.Print("\n" + details.String())
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "asmtrace: %d run(s) failed verification\n", failures)
		os.Exit(1)
	}
}

// replayQuery reconstructs one query from its attributed events.
func replayQuery(events []trace.Event, qid uint64, hist, occupancy bool) {
	evs := trace.FilterQuery(events, qid)
	if len(evs) == 0 {
		fmt.Fprintf(os.Stderr, "asmtrace: no events for query %d\n", qid)
		os.Exit(1)
	}
	r := trace.ReplayEvents(evs)
	fmt.Printf("query %d: %d events\n", qid, r.Events)
	fmt.Printf("  disk:     %d reads, %d seek pages (%.1f avg/read), %d faults\n",
		r.Reads, r.SeekReads, r.AvgSeekPerRead(), r.FaultsTransient+r.FaultsPermanent)
	fmt.Printf("  buffer:   %d hits, %d misses\n", r.Hits, r.Misses)
	fmt.Printf("  assembly: %d fetched, %d links, %d retries, %d stalls, %d assembled\n",
		r.Fetched, r.Links, r.Retries, r.Stalls, r.Assembled)
	if r.NetSends > 0 || r.NetRecvs > 0 {
		fmt.Printf("  net:      %d sends, %d recvs, %d timeouts\n",
			r.NetSends, r.NetRecvs, r.NetTimeouts)
	}
	fmt.Printf("--- layers ---\n%s", indent(r.Summary()))
	if hist {
		fmt.Printf("--- seek distances ---\n%s", indent(r.SeekHist.String()))
	}
	if occupancy {
		fmt.Printf("--- window ---\n%s", indent(r.OccupancyTable(72)))
	}
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "  " + l
	}
	return strings.Join(lines, "\n") + "\n"
}
