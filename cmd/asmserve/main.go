// Command asmserve runs a benchmark workload in a loop while exposing
// it for live inspection:
//
//	GET /metrics       Prometheus text exposition of every counter
//	GET /statusz       human-readable snapshot with occupancy sparkline
//	GET /tracez        recent per-query traces: timelines, critical paths
//	GET /fleetz        fleet control plane: member health, promotions
//	GET /query         run one assembly query under a deadline
//	GET /debug/pprof/  standard Go profiler endpoints
//
// Usage:
//
//	asmserve [-addr :8091] [-figure faults|fig13c|...] [-scale 0.5]
//	         [-interval 1s] [-once] [-max-concurrent 4]
//	         [-query-timeout 5s] [-query-window 10] [-slow-query 500ms]
//	         [-shards host:7070/host:7071,host:7072] [-promote-after 3s]
//
// The workload is one of asmbench's figures, re-run every -interval
// until the process is interrupted (-once stops after a single pass).
// Device, pool, and operator counters are registered in a shared
// metrics registry and never reset, so scrapes observe monotone
// counters; per-run numbers are snapshot deltas (see DESIGN.md §9).
//
// /query runs a fixed selection query against a dedicated generated
// database under the request's lifecycle: at most -max-concurrent
// requests run at once (excess answers 503 immediately), each bounded
// by -query-timeout or the ?deadline=500ms override (expiry answers
// 504), each holding a buffer-frame reservation so overload sheds at
// admission instead of thrashing the pool (DESIGN.md §11).
//
// Every /query gets a query ID (echoed in the X-Query-Id response
// header) and a span tree; /tracez shows the most recent completed
// traces with per-layer critical-path attribution, and queries slower
// than -slow-query land in its slow-query log plus one stderr line
// each (DESIGN.md §14).
//
// A -shards entry may carry a replica after a slash —
// primary:7070/replica:7071 — wiring that shard for read failover.
// With -promote-after set, a fleet controller probes every shard
// primary and, after that long a sustained outage confirmed by extra
// jittered probes, promotes the shard's replica to writable primary at
// a bumped fencing epoch (DESIGN.md §16); /fleetz shows its view.
//
//	curl -s localhost:8091/metrics | grep asm_disk
//	curl -s "localhost:8091/query?deadline=250ms"
//	curl -s localhost:8091/tracez
//	go tool pprof http://localhost:8091/debug/pprof/profile?seconds=5
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"revelation/internal/assembly"
	"revelation/internal/disk"
	"revelation/internal/expr"
	"revelation/internal/fleet"
	"revelation/internal/gen"
	"revelation/internal/metrics"
	"revelation/internal/pagesvc"
	"revelation/internal/qtrace"
	"revelation/internal/query"
	"revelation/internal/serve"
	"revelation/internal/shard"
	"revelation/internal/suite"
	"revelation/internal/volcano"
)

func main() {
	addr := flag.String("addr", ":8091", "HTTP listen address")
	figure := flag.String("figure", "faults", "figure id to run as the workload ("+strings.Join(suite.FigureIDs(), ", ")+")")
	scale := flag.Float64("scale", 0.5, "database size scale factor")
	interval := flag.Duration("interval", time.Second, "pause between workload passes")
	once := flag.Bool("once", false, "run the workload a single time, then keep serving")
	maxConcurrent := flag.Int("max-concurrent", 4, "max in-flight /query requests; excess sheds with 503")
	queryTimeout := flag.Duration("query-timeout", 5*time.Second, "default /query deadline (?deadline= overrides)")
	queryWindow := flag.Int("query-window", 10, "assembly window for /query requests")
	shards := flag.String("shards", "", "comma-separated page-service endpoints, one per shard, each optionally primary/replica (see cmd/asmpaged); /query pages are spread over the fleet by the rendezvous router (one entry is a single page service) and assembled with the per-shard elevator")
	promoteAfter := flag.Duration("promote-after", 0, "promote a shard's replica after its primary has been unreachable this long (0 disables the fleet controller; needs -shards entries with replicas)")
	retryBudget := flag.Int("retry-budget", 64, "max I/O retries one /query may spend across all shards combined; 0 disables the budget")
	slowQuery := flag.Duration("slow-query", 500*time.Millisecond, "queries at least this slow land in the /tracez slow-query log and log one line; 0 disables")
	flag.Parse()

	reg := metrics.NewRegistry()
	qt := qtrace.NewCollector(0)
	qt.SetSlowThreshold(*slowQuery, func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "asmserve: "+format+"\n", args...)
	})
	figureID := strings.ToLower(*figure)
	if err := suite.CheckFigure(figureID); err != nil {
		fmt.Fprintf(os.Stderr, "asmserve: %v\n", err)
		os.Exit(2)
	}
	session := suite.Session{Metrics: reg}
	run := func(scale float64) error {
		_, err := session.Figure(figureID, suite.FigureParams{Scale: scale, Faults: suite.DefaultFaultOptions})
		return err
	}
	queryFn, fleetz, err := queryWorkload(reg, *scale, *queryWindow, *shards, *promoteAfter)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asmserve: %v\n", err)
		os.Exit(2)
	}

	srv := serve.New(serve.Options{
		Registry: reg,
		// The sum over policies is the live total: at most one policy's
		// operator is mid-run at a time in this single-threaded loop.
		Occupancy: func() int64 {
			return reg.Snapshot().Sum("asm_assembly_window_occupancy")
		},
		Info: []string{
			fmt.Sprintf("workload: figure %s, scale %.2f, interval %v", *figure, *scale, *interval),
			fmt.Sprintf("/query: window %d, max %d concurrent, timeout %v", *queryWindow, *maxConcurrent, *queryTimeout),
		},
		Query:         queryFn,
		MaxConcurrent: *maxConcurrent,
		QueryTimeout:  *queryTimeout,
		QTrace:        qt,
		RetryBudget:   *retryBudget,
		Fleet:         fleetz,
	})
	srv.Start()
	defer srv.Stop()

	passCounter := reg.Counter("asm_serve_workload_passes_total", "Completed workload passes.")
	errCounter := reg.Counter("asm_serve_workload_errors_total", "Failed workload passes.")

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	go func() {
		for {
			if err := run(*scale); err != nil {
				errCounter.Inc()
				fmt.Fprintf(os.Stderr, "asmserve: workload: %v\n", err)
			} else {
				passCounter.Inc()
			}
			if *once {
				return
			}
			select {
			case <-stop:
				return
			case <-time.After(*interval):
			}
		}
	}()

	fmt.Printf("asmserve: listening on %s (figure %s, scale %.2f)\n", *addr, *figure, *scale)
	fmt.Printf("asmserve: try curl -s localhost%s/metrics | grep asm_\n", *addr)
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	go func() {
		<-stop
		httpSrv.Close()
	}()
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "asmserve: %v\n", err)
		os.Exit(1)
	}
}

// queryWorkload generates the /query database and returns the closure
// that runs one revealed selection query under the request's context,
// plus the /fleetz renderer (nil without -shards). Queries share one
// store and pool: the store is read-only after build and the pool
// serializes frame traffic, so concurrent requests are safe — the
// interesting contention (frames) is what reservations and bounded pin
// waits manage.
func queryWorkload(reg *metrics.Registry, scale float64, window int, shards string, promoteAfter time.Duration) (func(ctx context.Context) (string, error), func(w io.Writer), error) {
	size := int(1000 * scale)
	if size < 100 {
		size = 100
	}
	db, err := gen.Build(gen.Config{
		NumComplexObjects: size,
		Clustering:        gen.Unclustered,
		BufferPages:       256,
		Seed:              91,
	})
	if err != nil {
		return nil, nil, err
	}
	var router *shard.Router
	var fleetz func(io.Writer)
	if shards != "" {
		// Spread the generated pages over the fleet by rendezvous
		// assignment, then reopen the database behind the router: every
		// /query from here on reads sharded pages, with breakers and the
		// per-query retry budget governing brown-outs.
		var primaries, replicas []*pagesvc.Client
		if router, primaries, replicas, err = fleet.Dial(shards, reg); err != nil {
			return nil, nil, err
		}
		if db, err = pushToShards(db, router); err != nil {
			router.Close()
			return nil, nil, err
		}
		ctrl := startController(reg, router, primaries, replicas, promoteAfter)
		fleetz = func(w io.Writer) {
			if ctrl != nil {
				ctrl.WriteStatus(w)
			}
			writeShardStatus(w, router)
		}
	}
	db.Pool.RegisterMetrics(reg, "queryserve")
	if window < 1 {
		window = 1
	}
	reserve := window*db.NodesPerObject + 8
	return func(ctx context.Context) (string, error) {
		q := &query.Query{
			Template: db.Template,
			Roots:    db.Roots,
			NodePreds: map[string]expr.Predicate{
				"G": expr.IntCmp{Field: 1, Op: expr.LT, Value: 500, Sel: 0.5},
			},
		}
		opts := assembly.Options{
			Window:        window,
			Scheduler:     assembly.Elevator,
			ReserveFrames: reserve,
		}
		sp, ctx := qtrace.Start(ctx, qtrace.LayerPlan, "reveal")
		plan, err := query.Reveal(db.Store, q, opts)
		sp.End()
		if err != nil {
			return "", err
		}
		start := time.Now()
		items, err := volcano.Drain(ctx, plan)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("assembled %d of %d complex objects in %s",
			len(items), len(db.Roots), time.Since(start).Round(time.Millisecond)), nil
	}, fleetz, nil
}

// startController wires the fleet controller over the shard fleet and
// runs it in the background, or returns nil when -promote-after is off
// or no shard has a replica to promote.
func startController(reg *metrics.Registry, router *shard.Router, primaries, replicas []*pagesvc.Client, promoteAfter time.Duration) *fleet.Controller {
	if promoteAfter <= 0 {
		return nil
	}
	promotable := false
	members := make([]fleet.Member, len(primaries))
	for i := range primaries {
		i := i
		name := router.MemberName(i)
		members[i] = fleet.Member{
			Name:  name,
			Probe: primaries[i].Ping,
			Epoch: func() uint64 { return router.Epoch(i) },
		}
		repl := replicas[i]
		if repl == nil {
			continue
		}
		promotable = true
		members[i].ReplicaLSN = func() uint64 {
			lsn, err := repl.AppliedLSN()
			if err != nil {
				return 0
			}
			return lsn
		}
		members[i].Promote = func(epoch uint64) error {
			// The replica's server goes writable at the new epoch first
			// (it starts fencing stale-epoch zombies), then the router
			// flips routing onto it.
			if err := repl.Promote(epoch, 0, true); err != nil {
				return err
			}
			_, err := router.PromoteReplica(i, epoch)
			if err == nil {
				fmt.Printf("asmserve: promoted %s's replica to primary at epoch %d\n", name, epoch)
			}
			return err
		}
	}
	if !promotable {
		fmt.Fprintln(os.Stderr, "asmserve: -promote-after set but no -shards entry has a replica; fleet controller disabled")
		return nil
	}
	ctrl := fleet.NewController(fleet.Config{
		Members:       members,
		SustainedLoss: promoteAfter,
		ProbeJitter:   promoteAfter / 8,
		Registry:      reg,
	})
	go ctrl.Run(promoteAfter / 4)
	fmt.Printf("asmserve: fleet controller on, promoting after %v sustained loss\n", promoteAfter)
	return ctrl
}

// writeShardStatus renders the data plane's half of /fleetz.
func writeShardStatus(w io.Writer, r *shard.Router) {
	fmt.Fprintf(w, "shards: %d members, %d pages, %d pending migration\n",
		r.Shards(), r.NumPages(), r.PendingPages())
	for i := 0; i < r.Shards(); i++ {
		replica := "-"
		if r.HasReplica(i) {
			replica = fmt.Sprintf("replica@lsn %d", r.ReplicaLSN(i))
		}
		fmt.Fprintf(w, "  %-12s epoch %-3d breaker %-8v degraded %-6d trips %-4d %s\n",
			r.MemberName(i), r.Epoch(i), r.BreakerState(i), r.DegradedReads(i), r.Trips(i), replica)
	}
}

// pushToShards rendezvous-spreads db's pages over the fleet behind
// router and reopens the database on it: the extent is allocated on
// every member (so page ids line up), but each page is written only to
// the shard that owns it, and the router never reads a page anywhere
// else.
func pushToShards(db *gen.Database, router *shard.Router) (*gen.Database, error) {
	if err := db.Pool.FlushAll(); err != nil {
		return nil, err
	}
	if db.Device.PageSize() != router.PageSize() {
		return nil, fmt.Errorf("shard fleet serves %d-byte pages, database has %d", router.PageSize(), db.Device.PageSize())
	}
	if n := db.Device.NumPages() - router.NumPages(); n > 0 {
		if _, err := router.Allocate(n); err != nil {
			return nil, err
		}
	}
	buf := make([]byte, db.Device.PageSize())
	for p := 0; p < db.Device.NumPages(); p++ {
		if err := db.Device.ReadPage(disk.PageID(p), buf); err != nil {
			return nil, err
		}
		if err := router.WritePage(disk.PageID(p), buf); err != nil {
			return nil, err
		}
	}
	mp, err := db.Manifest()
	if err != nil {
		return nil, err
	}
	return gen.OpenDatabaseOn(router, mp, 256)
}
