// Command asmquery runs a selection query against a database generated
// by cmd/dbgen, either naively (object-at-a-time) or revealed into an
// assembly-operator plan, and reports the results alongside the disk
// statistics — the Figure 1 flow from the command line.
//
// The query predicate is a comparison on the `rand` attribute
// (uniform over [0,1000)) of one template component:
//
//	asmquery -db db.pages -manifest db.manifest \
//	         -node G -field rand -lt 150 -mode both -window 50
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"revelation/internal/assembly"
	"revelation/internal/expr"
	"revelation/internal/fleet"
	"revelation/internal/gen"
	"revelation/internal/query"
	"revelation/internal/shard"
	"revelation/internal/volcano"
)

func main() {
	dbPath := flag.String("db", "db.pages", "device file")
	manifest := flag.String("manifest", "db.manifest", "manifest file")
	node := flag.String("node", "G", "template component the predicate applies to (A..G)")
	lt := flag.Int("lt", 500, "predicate: rand < this value (0..1000)")
	mode := flag.String("mode", "both", "naive | revealed | both")
	templatePath := flag.String("template", "", "optional template JSON (see assembly.MarshalTemplateJSON); overrides the manifest template and may carry its own predicates")
	window := flag.Int("window", 50, "assembly window size")
	bufferPages := flag.Int("buffer", 256, "buffer pool pages")
	explain := flag.Bool("explain", true, "print the revealed plan")
	deadline := flag.Duration("deadline", 0, "abort the revealed query after this long (0 = unbounded)")
	shards := flag.String("shards", "", "comma-separated page-service endpoints, one per shard, each optionally primary/replica (see cmd/asmpaged); replaces -db with the fleet behind the rendezvous router (one entry is a single page service) and assembles with the per-shard elevator")
	flag.Parse()

	var db *gen.Database
	var router *shard.Router
	var err error
	if *shards != "" {
		db, router, err = openSharded(*shards, *manifest, *bufferPages)
	} else {
		db, err = gen.OpenDatabase(*dbPath, *manifest, *bufferPages)
	}
	if err != nil {
		fail("open: %v", err)
	}
	defer db.Device.Close()

	tmpl := db.Template
	if *templatePath != "" {
		data, err := os.ReadFile(*templatePath)
		if err != nil {
			fail("template: %v", err)
		}
		tmpl, err = assembly.UnmarshalTemplateJSON(data, db.Store.Catalog)
		if err != nil {
			fail("template: %v", err)
		}
	}
	target := tmpl.FindByName(*node)
	if target == nil {
		fail("no template component %q (template:\n%s)", *node, tmpl)
	}
	q := &query.Query{
		Template: tmpl,
		Roots:    db.Roots,
		NodePreds: map[string]expr.Predicate{
			*node: expr.IntCmp{Field: 1, Op: expr.LT, Value: int32(*lt), Sel: float64(*lt) / 1000},
		},
	}
	opts := assembly.Options{Window: *window, Scheduler: assembly.Elevator,
		UseSharingStats: db.Config.Sharing > 0}
	if router != nil {
		// Pending references partition by the router's assignment; each
		// shard lane keeps its own SCAN order with one read in flight.
		opts.CustomScheduler = assembly.NewShardElevator(router.Shards(), router.ShardOf)
		opts.ShardPrefetch = true
	}

	fmt.Printf("query: %s.rand < %d over %d complex objects (%v clustering)\n",
		*node, *lt, len(db.Roots), db.Config.Clustering)

	if *explain && *mode != "naive" {
		plan, err := query.Reveal(db.Store, q, opts)
		if err != nil {
			fail("reveal: %v", err)
		}
		fmt.Println("\nrevealed plan:")
		for _, line := range strings.Split(strings.TrimSpace(volcano.Explain(plan)), "\n") {
			fmt.Println("  " + line)
		}
	}

	cold := func() {
		if err := db.Pool.EvictAll(); err != nil {
			fail("evict: %v", err)
		}
		db.Pool.ResetStats()
		db.Device.ResetStats()
		db.Device.ResetHead()
	}
	fmt.Println()
	var naiveN, revN = -1, -1
	if *mode == "naive" || *mode == "both" {
		cold()
		res, err := query.NaiveExec(db.Store, q)
		if err != nil {
			fail("naive: %v", err)
		}
		st := db.Device.Stats()
		naiveN = len(res)
		fmt.Printf("naive:    %5d results, %7d reads, avg seek %8.1f pages\n",
			len(res), st.Reads, st.AvgSeekPerRead())
	}
	if *mode == "revealed" || *mode == "both" {
		cold()
		plan, err := query.Reveal(db.Store, q, opts)
		if err != nil {
			fail("reveal: %v", err)
		}
		if *deadline > 0 {
			// The whole plan — exchange producers included — observes
			// the deadline; an expired query aborts cleanly with its
			// pins and reservations released, it does not hang.
			ctx, cancel := context.WithTimeout(context.Background(), *deadline)
			defer cancel()
			volcano.Bind(ctx, plan)
		}
		res, err := volcano.Drain(plan)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				fail("revealed: deadline %v exceeded after %d results", *deadline, len(res))
			}
			fail("revealed: %v", err)
		}
		st := db.Device.Stats()
		revN = len(res)
		fmt.Printf("revealed: %5d results, %7d reads, avg seek %8.1f pages\n",
			len(res), st.Reads, st.AvgSeekPerRead())
	}
	if naiveN >= 0 && revN >= 0 && naiveN != revN {
		fail("plans disagree: naive %d, revealed %d", naiveN, revN)
	}
}

// openSharded opens the database over a fleet of page services behind
// the rendezvous router: every page access routes to the shard that
// owns the page, and the assembly above partitions its pending reads
// into per-shard elevator lanes.
func openSharded(endpoints, manifestPath string, bufferPages int) (*gen.Database, *shard.Router, error) {
	mp, err := gen.LoadManifest(manifestPath)
	if err != nil {
		return nil, nil, err
	}
	router, _, _, err := fleet.Dial(endpoints, nil)
	if err != nil {
		return nil, nil, err
	}
	db, err := gen.OpenDatabaseOn(router, mp, bufferPages)
	if err != nil {
		router.Close()
		return nil, nil, err
	}
	return db, router, nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "asmquery: "+format+"\n", args...)
	os.Exit(1)
}
