package suite

// Concurrent query-lifecycle chaos: many queries over one shared
// database, each with its own context, tracer, and registry, cancelled
// at seeded random points. The invariants under fire:
//
//   - no goroutine leaks (exchange producers exit on cancellation),
//   - no leaked pins or reservations once every query is done,
//   - per-query three-way agreement — the operator's stats, the trace
//     replay, and the metrics-registry delta agree exactly, extending
//     TestThreeWayAgreement to concurrent, cancelled runs. (The disk
//     legs are zero here: the shared device is not traced per query.)

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"revelation/internal/assembly"
	"revelation/internal/buffer"
	"revelation/internal/gen"
	"revelation/internal/leakcheck"
	"revelation/internal/metrics"
	"revelation/internal/trace"
	"revelation/internal/volcano"
)

// chaosResult is one query's outcome under the chaos harness.
type chaosResult struct {
	name     string
	shed     bool // admission-rejected at Open
	received int  // items the harness actually consumed
	stats    assembly.Stats
	col      *trace.Collector
	reg      *metrics.Registry
	err      error // unexpected terminal error (lifecycle errors excluded)
}

// runChaosQuery executes one full query lifecycle: reserve frames at
// Open (ErrAdmission = shed), drain with an optional cancel point
// (cancelAt items received, -1 = run to completion) or deadline, and
// settle the books at Close. Odd query indices consume their roots
// through an Exchange so producer goroutines face the cancellation too.
func runChaosQuery(db *gen.Database, q, cancelAt int, deadline time.Duration, reserve int) chaosResult {
	res := chaosResult{
		name: fmt.Sprintf("chaos-%d", q),
		col:  trace.NewCollector(),
		reg:  metrics.NewRegistry(),
	}
	tr := trace.New(res.col)

	ctx := context.Background()
	var cancel context.CancelFunc
	if deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, deadline)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	items := make([]volcano.Item, len(db.Roots))
	for i, r := range db.Roots {
		items[i] = r
	}
	var input volcano.Iterator
	if q%2 == 1 {
		parts := volcano.PartitionSlice(items, 4)
		ex := volcano.NewExchange(4, func(part int) (volcano.Iterator, error) {
			return volcano.NewSlice(parts[part]), nil
		})
		ex.QueueLen = 2 // keep producers parked mid-stream when cancelled
		input = ex
	} else {
		input = volcano.NewSlice(items)
	}

	op := assembly.New(input, db.Store, db.Template, assembly.Options{
		Window:         4,
		Scheduler:      assembly.Elevator,
		PinWindowPages: true,
		ReserveFrames:  reserve,
		Tracer:         tr,
		Metrics:        res.reg,
	})
	volcano.Bind(ctx, op)
	tr.BeginRun(res.name, 4)

	if err := op.Open(); err != nil {
		tr.EndRun(res.name, trace.RunStats{})
		if errors.Is(err, buffer.ErrAdmission) {
			res.shed = true
			return res
		}
		res.err = fmt.Errorf("open: %w", err)
		return res
	}
	var terminal error
	for {
		if cancelAt >= 0 && res.received == cancelAt {
			cancel()
		}
		_, err := op.Next()
		if errors.Is(err, volcano.Done) {
			break
		}
		if err != nil {
			terminal = err
			break
		}
		res.received++
	}
	res.stats = op.Stats()
	if err := op.Close(); err != nil {
		res.err = fmt.Errorf("close: %w", err)
	}
	tr.EndRun(res.name, trace.RunStats{
		Assembled: res.stats.Assembled,
		Aborted:   res.stats.Aborted,
		Skipped:   res.stats.Skipped,
		Retries:   res.stats.FaultRetries,
		Stalls:    res.stats.WindowStalls,
	})
	if terminal != nil && !errors.Is(terminal, context.Canceled) &&
		!errors.Is(terminal, context.DeadlineExceeded) && res.err == nil {
		res.err = fmt.Errorf("next: %w", terminal)
	}
	return res
}

// verifyChaosQuery closes the per-query three-way triangle: replay ==
// reported (Run.Verify) and registry delta == reported. The registry
// was fresh per query, so its snapshot IS the delta.
func verifyChaosQuery(t *testing.T, res chaosResult) {
	t.Helper()
	runs := trace.SplitRuns(res.col.Events())
	if len(runs) != 1 {
		t.Errorf("%s: trace has %d runs, want 1", res.name, len(runs))
		return
	}
	run := runs[0]
	if run.Reported == nil {
		t.Errorf("%s: no end marker", res.name)
		return
	}
	if _, err := run.Verify(); err != nil {
		t.Errorf("%s: %v", res.name, err)
	}
	d := res.reg.Snapshot()
	fromRegistry := trace.RunStats{
		Assembled: int(d.Value("asm_assembly_assembled_total", "policy", "elevator")),
		Aborted:   int(d.Value("asm_assembly_aborted_total", "policy", "elevator")),
		Skipped:   int(d.Value("asm_assembly_skipped_total", "policy", "elevator")),
		Retries:   int(d.Value("asm_assembly_fault_retries_total", "policy", "elevator")),
		Stalls:    int(d.Value("asm_assembly_window_stalls_total", "policy", "elevator")),
	}
	if fromRegistry != *run.Reported {
		t.Errorf("%s: registry delta disagrees with harness:\nregistry %+v\nharness  %+v",
			res.name, fromRegistry, *run.Reported)
	}
	if occ := d.Value("asm_assembly_window_occupancy", "policy", "elevator"); occ != 0 {
		t.Errorf("%s: window occupancy gauge %d after the query ended, want 0", res.name, occ)
	}
}

// TestChaosConcurrentCancellation is the acceptance chaos test: at
// least 8 concurrent queries under the race detector, cancelled at
// seeded random points, with zero goroutine leaks, zero leaked pins or
// reservations, and exact per-query three-way agreement.
func TestChaosConcurrentCancellation(t *testing.T) {
	db, err := gen.Build(gen.Config{
		NumComplexObjects: 150,
		Clustering:        gen.Unclustered,
		Seed:              figureSeed,
		BufferPages:       512,
	})
	if err != nil {
		t.Fatal(err)
	}
	const nQueries = 8
	// 8 * 40 = 320 <= 512: every query admits; contention happens at
	// the pin level, resolved by bounded waits, not at admission.
	reserve := 4*db.NodesPerObject + 12

	rng := rand.New(rand.NewSource(91))
	cancelAts := make([]int, nQueries)
	deadlines := make([]time.Duration, nQueries)
	for q := range cancelAts {
		switch q % 4 {
		case 0: // run to completion
			cancelAts[q] = -1
		case 3: // die by deadline mid-flight
			cancelAts[q] = -1
			deadlines[q] = time.Duration(1+rng.Intn(10)) * time.Millisecond
		default: // cancel at a random emission point
			cancelAts[q] = rng.Intn(len(db.Roots))
		}
	}

	before := leakcheck.Snapshot()
	results := make([]chaosResult, nQueries)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for q := 0; q < nQueries; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			<-start
			results[q] = runChaosQuery(db, q, cancelAts[q], deadlines[q], reserve)
		}(q)
	}
	close(start)
	wg.Wait()

	completed, cancelled, shed := 0, 0, 0
	for _, res := range results {
		if res.err != nil {
			t.Errorf("%s: %v", res.name, res.err)
			continue
		}
		if res.shed {
			shed++
			continue
		}
		switch {
		case res.stats.Assembled == len(db.Roots):
			completed++
		default:
			cancelled++
		}
		verifyChaosQuery(t, res)
	}
	t.Logf("chaos: %d completed, %d cancelled mid-flight, %d shed", completed, cancelled, shed)
	if completed+cancelled+shed != nQueries {
		t.Errorf("queries unaccounted for: %d+%d+%d != %d", completed, cancelled, shed, nQueries)
	}
	if completed == 0 {
		t.Error("no query ran to completion — the chaos mix is degenerate")
	}
	if cancelled == 0 {
		t.Error("no query was cancelled mid-flight — the chaos mix is degenerate")
	}

	// The shared pool's books return to zero: no leaked pins, no leaked
	// reservations, no goroutines left behind.
	if got := db.Pool.PinnedFrames(); got != 0 {
		t.Errorf("%d frames still pinned after all queries ended", got)
	}
	if got := db.Pool.ReservedFrames(); got != 0 {
		t.Errorf("%d frames still reserved after all queries ended", got)
	}
	leakcheck.Check(t, before)
}

// TestFigConcurrencySmoke exercises the concurrent-throughput figure at
// tiny scale: every level must account for all its queries and leave
// the pool's books at zero (runConcurrent errors otherwise).
func TestFigConcurrencySmoke(t *testing.T) {
	var sess Session
	fig, err := sess.Figure("concurrency", FigureParams{Scale: 0.1, Concurrency: ConcurrencyOptions{MaxConcurrent: 4, Queries: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 1 {
		t.Fatalf("figure has %d series, want 1", len(fig.Series))
	}
	s := fig.Series[0]
	if len(s.X) != 3 || s.X[0] != 1 || s.X[2] != 4 { // levels 1, 2, 4
		t.Fatalf("levels %v, want [1 2 4]", s.X)
	}
	for i, y := range s.Y {
		if y <= 0 {
			t.Errorf("level %v: throughput %v, want > 0", s.X[i], y)
		}
	}
}

// TestChaosOverloadSheds runs more reservation demand than the pool can
// admit: the excess queries shed cleanly at Open with ErrAdmission and
// the books still return to zero. (The serve layer turns this exact
// signal into HTTP 503; see internal/serve.)
func TestChaosOverloadSheds(t *testing.T) {
	db, err := gen.Build(gen.Config{
		NumComplexObjects: 100,
		Clustering:        gen.Unclustered,
		Seed:              figureSeed,
		BufferPages:       96,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each query demands 40 of 96 frames: at most 2 hold reservations
	// at once; with all 8 launched together the rest mostly shed.
	const nQueries = 8
	reserve := 40

	before := leakcheck.Snapshot()
	results := make([]chaosResult, nQueries)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for q := 0; q < nQueries; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			<-start
			results[q] = runChaosQuery(db, q, -1, 0, reserve)
		}(q)
	}
	close(start)
	wg.Wait()

	completed, shed := 0, 0
	for _, res := range results {
		if res.err != nil {
			t.Errorf("%s: %v", res.name, res.err)
			continue
		}
		if res.shed {
			shed++
			continue
		}
		completed++
		if res.stats.Assembled != len(db.Roots) {
			t.Errorf("%s: assembled %d of %d", res.name, res.stats.Assembled, len(db.Roots))
		}
		verifyChaosQuery(t, res)
	}
	t.Logf("overload: %d completed, %d shed", completed, shed)
	if completed+shed != nQueries {
		t.Errorf("queries unaccounted for: %d completed + %d shed != %d", completed, shed, nQueries)
	}
	if completed == 0 {
		t.Error("every query shed — admission must always admit someone")
	}
	if got := db.Pool.PinnedFrames(); got != 0 {
		t.Errorf("%d frames still pinned", got)
	}
	if got := db.Pool.ReservedFrames(); got != 0 {
		t.Errorf("%d frames still reserved", got)
	}
	leakcheck.Check(t, before)
}
