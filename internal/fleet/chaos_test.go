package fleet

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"revelation/internal/assembly"
	"revelation/internal/disk"
	"revelation/internal/gen"
	"revelation/internal/metrics"
	"revelation/internal/object"
	"revelation/internal/qtrace"
	"revelation/internal/shard"
	"revelation/internal/trace"
	"revelation/internal/wal"
)

// failoverBreaker and failoverRetry are the kill-the-primary proofs'
// router: a breaker that opens after two failures and probes after
// 50 ms, and patience for an access that outlasts a failover.
var (
	failoverBreaker = shard.BreakerConfig{FailureThreshold: 2, OpenTimeout: 50 * time.Millisecond, HalfOpenSuccesses: 1}
	failoverRetry   = disk.RetryPolicy{MaxAttempts: 6, BaseBackoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond}
)

// TestShardChaosKillPrimaryMidQuery is the kill-the-primary proof: an
// assembly query runs over a page-service fleet with the per-shard
// elevator and shard prefetch, and one shard's primary is killed
// mid-query. The victim's breaker must open, its reads must fail over to
// the WAL-shipped replica under the LSN floor, and the query must finish
// byte-identical to the fault-free oracle with the shard counters, the
// metrics registry, the query trace, and the event-trace replay all in
// agreement — and no goroutine or pin leaks. The one-member fleet is
// the single page service with a replica: the same proof with nothing
// to route, which is where a lone client's failover now lives.
func TestShardChaosKillPrimaryMidQuery(t *testing.T) {
	t.Run("fleet=3", func(t *testing.T) { killPrimaryMidQuery(t, 3, 2026) })
	t.Run("fleet=1", func(t *testing.T) { killPrimaryMidQuery(t, 1, 1991) })
}

func killPrimaryMidQuery(t *testing.T, fleet int, seed int64) {
	const victim = 0
	reg := metrics.NewRegistry()
	rg := newRig(t, spec{
		db:    gen.Config{NumComplexObjects: 150, Clustering: gen.Unclustered, Seed: seed},
		names: []string{"s0", "s1", "s2"}[:fleet],
		net:   true, replica: true, wal: true,
		clients: reg,
		router:  shard.Config{Breaker: failoverBreaker, Retry: failoverRetry, Registry: reg},
	})
	router, pool := rg.router, rg.db.Pool
	col := trace.NewCollector()
	tr := trace.New(col)

	// Bracket the run (cold pool, counter snapshot, parked head, tracer
	// attached between bench markers) and open a query trace carrying a
	// retry budget. By hand: the harness's bracket lives in
	// internal/suite, which imports the shard package.
	if err := pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	dev0, reg0 := router.Stats(), reg.Snapshot()
	router.ResetHead()
	disk.AttachTracer(router, tr)
	pool.SetTracer(tr)
	tr.BeginRun("shard-chaos", 8)
	qcol := qtrace.NewCollector(8)
	qt, root := qcol.Begin("shard-chaos")
	budget := shard.NewBudget(256)
	ctx := shard.WithBudget(qtrace.With(context.Background(), root), budget)

	// Kill the victim once the query is demonstrably under way there.
	killed := rg.after(rg.clients[victim], 15, func() error { return rg.kill(victim) })
	op, items, err := rg.query(ctx, assembly.Options{Window: 8, FaultPolicy: assembly.RetryFaults})
	<-killed
	if err != nil {
		t.Fatalf("query did not survive the shard's death: %v", err)
	}
	st, dev := op.Stats(), router.Stats().Sub(dev0)
	tr.EndRun("shard-chaos", trace.RunStats{
		Reads:     dev.Reads,
		SeekReads: dev.SeekReads,
		SeekTotal: dev.SeekTotal,
		Assembled: st.Assembled,
		Aborted:   st.Aborted,
		Skipped:   st.Skipped,
		Retries:   st.FaultRetries,
		Stalls:    st.WindowStalls,
	})
	disk.AttachTracer(router, nil)
	pool.SetTracer(nil)
	qcol.Finish(qt, "ok", nil)

	// Byte-identical to the fault-free oracle, nothing lost.
	rg.checkOracle("mid-kill query", items)

	// The victim demonstrably broke and failed over; the healthy shards
	// never ran degraded.
	if got := router.Trips(victim); got < 1 {
		t.Errorf("victim breaker trips = %d, want >= 1", got)
	}
	if got := router.DegradedReads(victim); got < 1 {
		t.Errorf("victim degraded reads = %d, want >= 1", got)
	}
	for i := 0; i < fleet; i++ {
		if i == victim {
			continue
		}
		if got := router.DegradedReads(i); got != 0 {
			t.Errorf("healthy shard %d ran %d degraded reads, want 0", i, got)
		}
	}

	// Agreement, leg 1 — the query trace: total span reads equal the
	// bracketed device delta, degraded-read attribution equals the
	// router's own books, and every shard lane span did real work.
	tot := qcol.TotalAll()
	if tot.Reads != dev.Reads {
		t.Errorf("query-trace reads %d != bracketed device reads %d", tot.Reads, dev.Reads)
	}
	var degraded int64
	for i := 0; i < fleet; i++ {
		degraded += router.DegradedReads(i)
	}
	if tot.DegradedReads != degraded {
		t.Errorf("query-trace degraded reads %d != router degraded reads %d", tot.DegradedReads, degraded)
	}
	var laneReads int64
	for i := 0; i < fleet; i++ {
		found := false
		for _, sp := range qt.Spans() {
			if sp.Layer() == qtrace.LayerAssembly && sp.Name() == fmt.Sprintf("shard%d", i) {
				found = true
				laneReads += sp.Counters().Reads
				// A lone lane has nothing to prefetch beside: its
				// reads all land on the operator's own span.
				if fleet > 1 && sp.Counters().Reads == 0 {
					t.Errorf("lane span shard%d charged no reads", i)
				}
			}
		}
		if !found {
			t.Errorf("no lane span for shard %d", i)
		}
	}
	if laneReads > tot.Reads {
		t.Errorf("lane spans charge %d reads, more than the query total %d", laneReads, tot.Reads)
	}

	// Leg 2 — the metrics registry: the per-shard scrape series agree
	// with the router's accessors (trips cross-checks two independent
	// cells: the breaker's own count and the OnTrip-hooked counter).
	snap := reg.Snapshot()
	for i := 0; i < fleet; i++ {
		name := router.MemberName(i)
		if got := snap.Value("asm_shard_degraded_reads_total", "shard", name); got != router.DegradedReads(i) {
			t.Errorf("registry degraded reads for %s = %d, router says %d", name, got, router.DegradedReads(i))
		}
		if got := snap.Value("asm_shard_breaker_trips_total", "shard", name); got != router.Trips(i) {
			t.Errorf("registry trips for %s = %d, breaker says %d", name, got, router.Trips(i))
		}
	}
	if got := snap.Sum("asm_shard_budget_exhausted_total"); got != 0 {
		t.Errorf("budget exhausted %d times under a generous budget, want 0", got)
	}

	// Leg 3 — the event-trace replay: the bracketed run reconstructs to
	// exactly the harness-reported counters, the failover edge is in the
	// stream, and the replay of the whole stream — the bracket alone —
	// matches the registry's delta over it.
	verified := false
	for _, run := range trace.SplitRuns(col.Events()) {
		if run.Name != "shard-chaos" {
			continue
		}
		verified = true
		rep, err := run.Verify()
		if err != nil {
			t.Errorf("trace replay: %v", err)
		}
		if rep.Failovers < 1 {
			t.Errorf("replay failovers = %d, want >= 1", rep.Failovers)
		}
	}
	if !verified {
		t.Error("no shard-chaos run in the trace")
	}
	full, delta := trace.ReplayEvents(col.Events()), snap.Delta(reg0)
	if got := delta.Sum("asm_shard_failovers_total"); got != full.Failovers {
		t.Errorf("registry failovers %d != replayed failovers %d", got, full.Failovers)
	}
	if got := delta.Sum("asm_net_sends_total"); got != full.NetSends {
		t.Errorf("registry sends %d != replayed sends %d", got, full.NetSends)
	}
	if got := delta.Sum("asm_net_recvs_total"); got != full.NetRecvs {
		t.Errorf("registry recvs %d != replayed recvs %d", got, full.NetRecvs)
	}

	// Books at zero: no pinned frames (and, at the rig's teardown, no
	// goroutine leaks).
	if got := pool.PinnedFrames(); got != 0 {
		t.Errorf("pinned frames after query = %d, want 0", got)
	}
}

// TestShardNoReplicaSkipObjectPoisonedSet kills a replica-less shard
// before the query runs: under SkipObject the query must complete
// partial, quarantining exactly the complex objects with a component on
// the dead shard — predicted up front from the generator's page map and
// the router's own assignment — and assembling every other object
// byte-identical to the oracle.
func TestShardNoReplicaSkipObjectPoisonedSet(t *testing.T) {
	// A local fleet: three fault-injectable members, no replicas.
	const fleet, victim = 3, 0
	reg := metrics.NewRegistry()
	rg := newRig(t, spec{
		db:     gen.Config{NumComplexObjects: 120, Clustering: gen.IntraObject, Seed: 777},
		names:  []string{"s0", "s1", "s2"},
		faulty: true,
		router: shard.Config{
			Breaker:  shard.BreakerConfig{FailureThreshold: 2, OpenTimeout: 10 * time.Millisecond, HalfOpenSuccesses: 1},
			Retry:    disk.RetryPolicy{MaxAttempts: 2, BaseBackoff: 50 * time.Microsecond, MaxBackoff: 200 * time.Microsecond},
			Registry: reg,
		},
	})
	router, oracle := rg.router, rg.oracle

	// The poisoned set, predicted before anything fails: every root with
	// a component page owned by the victim.
	comp, err := componentPages(rg.src)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := map[object.OID]bool{}
	for root, pages := range comp {
		for _, p := range pages {
			if router.ShardOf(p) == victim {
				poisoned[root] = true
				break
			}
		}
	}
	if len(poisoned) == 0 || len(poisoned) == len(oracle) {
		t.Fatalf("degenerate poisoned set: %d of %d objects", len(poisoned), len(oracle))
	}

	// Kill the victim before the query: every read of its pages fails
	// transiently, forever, and nothing is cached.
	rg.faulty[victim].SetConfig(disk.FaultConfig{Seed: 3, TransientRate: 1, TransientFailures: 1 << 30})
	if err := rg.db.Pool.EvictAll(); err != nil {
		t.Fatal(err)
	}

	// A deliberately tiny budget: the first few poisoned accesses spend
	// it on retries, the rest surface immediately — either way SkipObject
	// quarantines, and the partial result below proves the outcome is
	// identical.
	qcol := qtrace.NewCollector(8)
	qt, root := qcol.Begin("shard-skip")
	budget := shard.NewBudget(8)
	ctx := shard.WithBudget(qtrace.With(context.Background(), root), budget)
	op, items, err := rg.query(ctx, assembly.Options{Window: 8, FaultPolicy: assembly.SkipObject})
	if err != nil {
		t.Fatalf("partial query failed outright: %v", err)
	}
	qcol.Finish(qt, "ok", nil)

	// Exactly the predicted survivors, each byte-identical to the
	// oracle.
	got := map[object.OID]string{}
	for _, it := range items {
		inst := it.(*assembly.Instance)
		got[inst.OID()] = render(inst)
	}
	for oid, want := range oracle {
		if poisoned[oid] {
			if _, ok := got[oid]; ok {
				t.Errorf("root %v has a component on the dead shard but was emitted", oid)
			}
			continue
		}
		if g, ok := got[oid]; !ok {
			t.Errorf("root %v lost: no component on the dead shard, not emitted", oid)
		} else if g != want {
			t.Errorf("root %v diverges from oracle:\n got %s\nwant %s", oid, g, want)
		}
	}
	if len(got) != len(oracle)-len(poisoned) {
		t.Errorf("emitted %d objects, want %d (%d oracle - %d poisoned)",
			len(got), len(oracle)-len(poisoned), len(oracle), len(poisoned))
	}
	if st := op.Stats(); st.Skipped != len(poisoned) {
		t.Errorf("Stats.Skipped = %d, want %d", st.Skipped, len(poisoned))
	}

	// The degraded plumbing fired: breaker opened, degraded reads were
	// refused (no replica), the tiny budget ran dry, and the query trace
	// agrees with the router's books.
	if got := router.Trips(victim); got < 1 {
		t.Errorf("victim trips = %d, want >= 1", got)
	}
	if got := router.DegradedReads(victim); got < 1 {
		t.Errorf("victim degraded reads = %d, want >= 1", got)
	}
	if budget.Take() {
		t.Error("budget has a retry left, want none")
	}
	if got := reg.Snapshot().Sum("asm_shard_budget_exhausted_total"); got < 1 {
		t.Errorf("budget exhaustions = %d, want >= 1", got)
	}
	var degraded int64
	for i := 0; i < fleet; i++ {
		degraded += router.DegradedReads(i)
	}
	if tot := qcol.TotalAll(); tot.DegradedReads != degraded {
		t.Errorf("query-trace degraded reads %d != router degraded reads %d", tot.DegradedReads, degraded)
	}
}

// componentPages returns, for every root, the distinct data pages
// backing the components db.RootOf attributes to it (a shared component
// counts under its first referencing root), each list sorted: the pages
// whose loss poisons that complex object.
func componentPages(db *gen.Database) (map[object.OID][]disk.PageID, error) {
	out := map[object.OID][]disk.PageID{}
	for oid, root := range db.RootOf {
		rid, ok, err := db.Store.WhereIs(oid)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("component %d has no location", oid)
		}
		if !slices.Contains(out[root], rid.Page) {
			out[root] = append(out[root], rid.Page)
		}
	}
	for _, pages := range out {
		slices.Sort(pages)
	}
	return out, nil
}

// TestFleetPromotionChaosKillPrimary is the promotion tentpole proof:
// an assembly query runs over a three-member networked fleet whose
// member 0 ships its WAL to a read-only replica, the fleet controller
// watches all three primaries, and member 0's primary is killed
// mid-query and HELD down. The query must finish byte-identical to the
// fault-free oracle on replica failover; the controller must then
// detect sustained loss, confirm it, and promote the replica to
// writable primary at epoch 1 — after which a second query and a write
// run healthy against the promoted member, with the controller's
// books, the metrics registry, and the event-trace replay agreeing on
// exactly one promotion, and no goroutine leaks.
func TestFleetPromotionChaosKillPrimary(t *testing.T) {
	const width, victim = 3, 0
	reg := metrics.NewRegistry()
	rg := newRig(t, spec{
		db:    gen.Config{NumComplexObjects: 150, Clustering: gen.Unclustered, Seed: 4062},
		names: []string{"s0", "s1", "s2"},
		net:   true, replica: true, readOnly: true, wal: true,
		router: shard.Config{Breaker: failoverBreaker, Retry: failoverRetry, Registry: reg},
	})
	router, pool := rg.router, rg.db.Pool
	// The staleness floor is also the promotion floor. The router's
	// events (the failover and the promotion) and its members' go to
	// one stream from here on.
	floor := rg.wal.DurableLSN()
	col := trace.NewCollector()
	disk.AttachTracer(router, trace.New(col))

	// The control plane: probe every primary; the victim's member has
	// the replica handles so it is the only promotable one.
	ctrlMembers := make([]Member, width)
	for i := range ctrlMembers {
		ctrlMembers[i] = Member{
			Name:  router.MemberName(i),
			Probe: rg.clients[i].Ping,
			Epoch: func() uint64 { return router.Epoch(i) },
		}
	}
	ctrlMembers[victim].ReplicaLSN = rg.members[victim].AppliedLSN
	ctrlMembers[victim].Promote = func(epoch uint64) error {
		// Promotion order matters: the replica's server goes writable
		// at the new epoch first (it starts refusing stale-epoch
		// zombies), then the router flips routing and stamps the epoch
		// into the promoted client.
		if err := rg.replica.Promote(epoch, floor, true); err != nil {
			return err
		}
		_, err := router.PromoteReplica(victim, epoch)
		return err
	}
	ctrl := NewController(Config{
		Members:       ctrlMembers,
		SustainedLoss: 30 * time.Millisecond,
		ProbeJitter:   2 * time.Millisecond,
		LSNFloor:      func() uint64 { return floor },
		Registry:      reg,
	})
	ctrlDone := make(chan struct{})
	go func() { defer close(ctrlDone); ctrl.Run(5 * time.Millisecond) }()
	t.Cleanup(func() {
		ctrl.Stop()
		<-ctrlDone
	})

	// Kill the victim once the query is demonstrably under way there,
	// and HOLD it down — unlike a blip, this must end in promotion.
	killed := rg.after(rg.clients[victim], 15, func() error { return rg.kill(victim) })
	_, items, err := rg.query(nil, assembly.Options{Window: 8, FaultPolicy: assembly.RetryFaults})
	<-killed
	if err != nil {
		t.Fatalf("query did not survive the primary's death: %v", err)
	}
	rg.checkOracle("mid-kill query", items)

	// The primary stays down; the controller must promote. Wait for it.
	deadline := time.Now().Add(10 * time.Second)
	for ctrl.Promotions() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("no promotion within deadline; status: %+v", ctrl.Status())
		}
		time.Sleep(time.Millisecond)
	}
	if got := router.Epoch(victim); got != 1 {
		t.Errorf("router epoch for victim = %d, want 1", got)
	}
	if rg.replSrv.Epoch() != 1 || rg.replSrv.ReadOnly() {
		t.Errorf("promoted server epoch=%d readOnly=%v, want epoch 1, writable", rg.replSrv.Epoch(), rg.replSrv.ReadOnly())
	}
	if router.HasReplica(victim) {
		t.Error("victim still has a replica after promotion")
	}

	// Healthy again: a fresh query runs entirely on primaries — the
	// promoted member serves its share — and stays byte-identical.
	if err := pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	degradedBefore := router.DegradedReads(victim)
	_, items, err = rg.query(nil, assembly.Options{Window: 8})
	if err != nil {
		t.Fatalf("post-promotion query: %v", err)
	}
	rg.checkOracle("post-promotion query", items)
	if got := router.DegradedReads(victim) - degradedBefore; got != 0 {
		t.Errorf("post-promotion query ran %d degraded reads, want 0", got)
	}

	// The promoted member accepts writes: read a victim-owned page and
	// write it back (a content no-op through the write path).
	var vp disk.PageID
	for ; router.ShardOf(vp) != victim; vp++ {
	}
	buf := make([]byte, router.PageSize())
	if err := router.ReadPage(vp, buf); err != nil {
		t.Fatal(err)
	}
	if err := router.WritePage(vp, buf); err != nil {
		t.Errorf("write to the promoted member: %v", err)
	}

	// Agreement: the controller's count, the registry's scrape, and the
	// event-trace replay all say exactly one promotion — and the
	// failover edge preceding it is in the stream too.
	if got := ctrl.Promotions(); got != 1 {
		t.Errorf("controller promotions = %d, want 1", got)
	}
	if got := reg.Snapshot().Value("asm_fleet_promotions_total"); got != 1 {
		t.Errorf("asm_fleet_promotions_total = %d, want 1", got)
	}
	rep := trace.ReplayEvents(col.Events())
	if rep.Promotions != 1 {
		t.Errorf("replay promotions = %d, want 1", rep.Promotions)
	}
	if rep.Failovers < 1 {
		t.Errorf("replay failovers = %d, want >= 1 (the degraded episode before promotion)", rep.Failovers)
	}
	if got := pool.PinnedFrames(); got != 0 {
		t.Errorf("pinned frames after queries = %d, want 0", got)
	}
}

// TestFleetReshardAddMemberMidQuery is the resharding tentpole proof:
// while an assembly query streams over a three-member fleet, a fourth
// member joins and the migrator moves its pages live. The query must
// finish byte-identical to the oracle (no read ever sees zero or two
// owners), exactly the rendezvous-predicted page set must migrate, and
// the migrator's count, the registry, and the trace replay must agree.
func TestFleetReshardAddMemberMidQuery(t *testing.T) {
	names := []string{"m0", "m1", "m2"}
	const joiner = "m3"
	reg := metrics.NewRegistry()
	rg := newRig(t, spec{
		db:    gen.Config{NumComplexObjects: 150, Clustering: gen.Unclustered, Seed: 907},
		names: names,
		router: shard.Config{
			Retry:    disk.RetryPolicy{MaxAttempts: 4, BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond},
			Registry: reg,
		},
	})
	router := rg.router
	predicted := predictDelta(t, names, joiner, router.NumPages())

	metaDev := disk.New(0)
	mg, err := NewMigrator(MigratorConfig{
		Router:     router,
		MetaDev:    metaDev,
		ChunkPages: 16,
		Registry:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mg.Close() })
	// The cutover events go to the stream the router's devices trace
	// into, the joiner's included once it joins.
	col := trace.NewCollector()
	disk.AttachTracer(router, trace.New(col))

	// Join once the query is demonstrably under way. Open builds the
	// shard elevator at the pre-join width; the joiner's pages get a
	// lane of their own once they route to it.
	joinerDev := disk.New(0)
	var migrated int
	joined := rg.after(router, 15, func() (err error) {
		migrated, err = mg.Join(shard.Member{Name: joiner, Primary: joinerDev})
		return err
	})
	_, items, err := rg.query(nil, assembly.Options{Window: 8})
	joinErr := <-joined
	if err != nil {
		t.Fatalf("query did not survive the live reshard: %v", err)
	}
	if joinErr != nil {
		t.Fatalf("join: %v", joinErr)
	}
	rg.checkOracle("mid-reshard query", items)

	// Exactly the predicted set moved.
	if migrated != len(predicted) {
		t.Errorf("migrated %d pages, predicted delta is %d", migrated, len(predicted))
	}
	if got := router.PendingPages(); got != 0 {
		t.Errorf("pending pages after join = %d, want 0", got)
	}
	newIdx := router.MemberIndex(joiner)
	for p := 0; p < router.NumPages(); p++ {
		id := disk.PageID(p)
		if got, want := router.ShardOf(id) == newIdx, predicted[id]; got != want {
			t.Fatalf("page %d routes to joiner=%v, predicted %v", p, got, want)
		}
	}

	// The durable ownership log covers the delta, attributed to the
	// joiner.
	recs, err := wal.ScanOwnership(metaDev)
	if err != nil {
		t.Fatal(err)
	}
	durable := 0
	for _, rec := range recs {
		if rec.Owner != joiner {
			t.Fatalf("ownership record names %q, want %q", rec.Owner, joiner)
		}
		for p := rec.Lo; p < rec.Hi; p++ {
			if predicted[p] {
				durable++
			}
		}
	}
	if durable != len(predicted) {
		t.Errorf("ownership log covers %d delta pages, want %d", durable, len(predicted))
	}

	// Agreement: migrator count == registry scrape == trace replay.
	if got := mg.PagesMigrated(); got != int64(len(predicted)) {
		t.Errorf("PagesMigrated = %d, want %d", got, len(predicted))
	}
	if got := reg.Snapshot().Value("asm_fleet_pages_migrated_total"); got != int64(len(predicted)) {
		t.Errorf("asm_fleet_pages_migrated_total = %d, want %d", got, len(predicted))
	}
	if rep := trace.ReplayEvents(col.Events()); rep.PagesMigrated != int64(len(predicted)) {
		t.Errorf("replay pages migrated = %d, want %d", rep.PagesMigrated, len(predicted))
	}

	// A post-reshard query over the rebalanced fleet is still
	// byte-identical, with the joiner's lane doing real work.
	if err := rg.db.Pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	joinerReadsBefore := joinerDev.Stats().Reads
	_, items, err = rg.query(nil, assembly.Options{Window: 8})
	if err != nil {
		t.Fatalf("post-reshard query: %v", err)
	}
	rg.checkOracle("post-reshard query", items)
	if got := joinerDev.Stats().Reads - joinerReadsBefore; got == 0 {
		t.Error("post-reshard query never read from the joiner")
	}
	if got := rg.db.Pool.PinnedFrames(); got != 0 {
		t.Errorf("pinned frames = %d, want 0", got)
	}
}
