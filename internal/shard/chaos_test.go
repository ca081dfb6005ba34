package shard

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"revelation/internal/assembly"
	"revelation/internal/disk"
	"revelation/internal/gen"
	"revelation/internal/leakcheck"
	"revelation/internal/metrics"
	"revelation/internal/object"
	"revelation/internal/pagesvc"
	"revelation/internal/qtrace"
	"revelation/internal/trace"
	"revelation/internal/volcano"
	"revelation/internal/wal"
)

// render flattens an assembled instance into a canonical string so two
// runs can be compared for exact equality.
func render(in *assembly.Instance) string {
	out := fmt.Sprintf("%d(", uint64(in.OID()))
	for _, c := range in.Children {
		if c == nil {
			out += "-,"
			continue
		}
		out += render(c) + ","
	}
	return out + ")"
}

func rootsIter(roots []object.OID) volcano.Iterator {
	items := make([]volcano.Item, len(roots))
	for i, r := range roots {
		items[i] = r
	}
	return volcano.NewSlice(items)
}

// copyPages base-backs-up src onto dst.
func copyPages(t *testing.T, src, dst disk.Device) {
	t.Helper()
	if n := src.NumPages() - dst.NumPages(); n > 0 {
		if _, err := dst.Allocate(n); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, src.PageSize())
	for p := 0; p < src.NumPages(); p++ {
		if err := src.ReadPage(disk.PageID(p), buf); err != nil {
			t.Fatal(err)
		}
		if err := dst.WritePage(disk.PageID(p), buf); err != nil {
			t.Fatal(err)
		}
	}
}

// waitApplied blocks until the replica has applied at least lsn.
func waitApplied(t *testing.T, r *pagesvc.Replica, lsn uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for r.AppliedLSN() < lsn {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at LSN %d, want >= %d", r.AppliedLSN(), lsn)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// oracleRenders assembles the database locally, fault-free, and returns
// the canonical rendering of every complex object.
func oracleRenders(t *testing.T, db *gen.Database) map[object.OID]string {
	t.Helper()
	op := assembly.New(rootsIter(db.Roots), db.Store, db.Template,
		assembly.Options{Window: 8, Scheduler: assembly.Elevator})
	items, err := volcano.Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[object.OID]string{}
	for _, it := range items {
		inst := it.(*assembly.Instance)
		oracle[inst.OID()] = render(inst)
	}
	return oracle
}

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
	before := leakcheck.Snapshot()

	db, err := gen.Build(gen.Config{
		NumComplexObjects: 150,
		Clustering:        gen.Unclustered,
		Seed:              seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	oracle := oracleRenders(t, db)
	manifest := filepath.Join(t.TempDir(), "manifest")
	if err := db.SaveManifest(manifest); err != nil {
		t.Fatal(err)
	}
	if err := db.Pool.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// One primary per shard, each base-backed-up with the full page
	// space; shard 0 (the victim) also ships a WAL to a replica.
	const victim = 0
	srvs := make([]*pagesvc.Server, fleet)
	addrs := make([]string, fleet)
	for i := 0; i < fleet; i++ {
		data := disk.New(0)
		copyPages(t, db.Device, data)
		devs := []disk.Device{data}
		if i == victim {
			devs = append(devs, disk.New(0)) // WAL device
		}
		srvs[i] = pagesvc.NewServer(devs, pagesvc.ServerConfig{})
		addr, err := srvs[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srvs[i].Close()
		addrs[i] = addr
	}
	replData := disk.New(0)
	copyPages(t, db.Device, replData)
	repl := pagesvc.NewReplica(replData, pagesvc.ReplicaConfig{Primary: addrs[victim], WALDev: pagesvc.WALDev})
	replSrv := pagesvc.NewServer([]disk.Device{replData}, pagesvc.ServerConfig{AppliedLSN: repl.AppliedLSN})
	replAddr, err := replSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer replSrv.Close()
	replDone := repl.Start()
	var stopOnce sync.Once
	stopRepl := func() {
		stopOnce.Do(func() {
			repl.Close()
			<-replDone
		})
	}
	defer stopRepl()

	// The compute node: WAL writer on the victim's WAL device, member
	// clients with a single attempt each — failover policy lives in the
	// router, so errors must surface to it, not be retried below it.
	retry := disk.RetryPolicy{MaxAttempts: 6, BaseBackoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond}
	walClient, err := pagesvc.Dial(pagesvc.ClientConfig{Primary: addrs[victim], Dev: pagesvc.WALDev, Retry: retry})
	if err != nil {
		t.Fatal(err)
	}
	netWAL, err := wal.Open(walClient)
	if err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	col := trace.NewCollector()
	tr := trace.New(col)
	members := make([]Member, fleet)
	for i := 0; i < fleet; i++ {
		c, err := pagesvc.Dial(pagesvc.ClientConfig{
			Primary:  addrs[i],
			Dev:      pagesvc.DataDev,
			Retry:    disk.RetryPolicy{MaxAttempts: 1},
			Timeout:  time.Second,
			Tracer:   tr,
			Registry: reg,
			Label:    fmt.Sprintf("net-s%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
		members[i] = Member{Name: fmt.Sprintf("s%d", i), Primary: c}
	}
	replClient, err := pagesvc.Dial(pagesvc.ClientConfig{
		Primary:  replAddr,
		Dev:      pagesvc.DataDev,
		Retry:    disk.RetryPolicy{MaxAttempts: 1},
		Timeout:  time.Second,
		Tracer:   tr,
		Registry: reg,
		Label:    fmt.Sprintf("net-s%dr", victim),
	})
	if err != nil {
		t.Fatal(err)
	}
	members[victim].Replica = replClient
	members[victim].AppliedLSN = func() uint64 {
		lsn, err := replClient.AppliedLSN()
		if err != nil {
			return 0
		}
		return lsn
	}
	router, err := New(Config{
		Members: members,
		Breaker: BreakerConfig{
			FailureThreshold:  2,
			OpenTimeout:       50 * time.Millisecond,
			HalfOpenSuccesses: 1,
		},
		Retry:    retry,
		LSNFloor: netWAL.DurableLSN,
		Tracer:   tr,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	mp, err := gen.LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	netDB, err := gen.OpenDatabaseOn(router, mp, 64)
	if err != nil {
		t.Fatal(err)
	}
	netDB.Pool.SetWAL(netWAL)

	// Dirty one page through the WAL so the durable LSN — the failover
	// staleness floor — is nonzero, and wait for the replica to prove it
	// has caught up past it.
	f, err := netDB.Pool.Fix(disk.PageID(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := netDB.Pool.Unfix(f, true); err != nil {
		t.Fatal(err)
	}
	if err := netDB.Pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if netWAL.DurableLSN() == 0 {
		t.Fatal("durable LSN still zero after a flush")
	}
	waitApplied(t, repl, netWAL.DurableLSN())

	// Bracket the run (cold pool, counter snapshot, parked head, tracer
	// attached between bench markers) and open a query trace carrying a
	// retry budget. By hand: the harness's bracket lives in
	// internal/suite, which imports this package.
	if err := netDB.Pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	dev0 := router.Stats()
	router.ResetHead()
	disk.AttachTracer(router, tr)
	netDB.Pool.SetTracer(tr)
	tr.BeginRun("shard-chaos", 8)
	qcol := qtrace.NewCollector(8)
	qt, root := qcol.Begin("shard-chaos")
	budget := NewBudget(256)
	ctx := WithBudget(qtrace.With(context.Background(), root), budget)

	// Kill the victim once the query is demonstrably under way there.
	victimDev := members[victim].Primary
	baseReads := victimDev.Stats().Reads
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		deadline := time.Now().Add(10 * time.Second)
		for victimDev.Stats().Reads-baseReads < 15 {
			if time.Now().After(deadline) {
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
		srvs[victim].Close()
	}()

	op := assembly.New(rootsIter(netDB.Roots), netDB.Store, netDB.Template, assembly.Options{
		Window:          8,
		CustomScheduler: assembly.NewShardElevator(router.Shards(), router.ShardOf),
		ShardPrefetch:   true,
		FaultPolicy:     assembly.RetryFaults,
		Tracer:          tr,
	})
	op.BindContext(ctx)
	items, err := volcano.Drain(op)
	<-killed
	if err != nil {
		t.Fatalf("query did not survive the shard's death: %v", err)
	}
	// A straggling read of the victim may have been hedged to its replica;
	// the losing leg finishes on its own time, so let the wire go quiet
	// before the books are closed and compared.
	router.legs.Wait()
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
	netDB.Pool.SetTracer(nil)
	qcol.Finish(qt, "ok", nil)

	// Byte-identical to the fault-free oracle, nothing lost.
	if len(items) != len(oracle) {
		t.Fatalf("assembled %d complex objects, oracle has %d", len(items), len(oracle))
	}
	for _, it := range items {
		inst := it.(*assembly.Instance)
		want, ok := oracle[inst.OID()]
		if !ok {
			t.Fatalf("assembled unknown root %v", inst.OID())
		}
		if got := render(inst); got != want {
			t.Errorf("root %v diverges from oracle:\n got %s\nwant %s", inst.OID(), got, want)
		}
	}

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
	if got := router.shards[victim].hedges.Value(); tot.Hedges != got {
		t.Errorf("query-trace hedges %d != router hedges %d", tot.Hedges, got)
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
		if got, want := snap.Value("asm_shard_hedges_total", "shard", name), router.shards[i].hedges.Value(); got != want {
			t.Errorf("registry hedges for %s = %d, router says %d", name, got, want)
		}
		if i != victim && router.shards[i].hedges.Value() != 0 {
			t.Errorf("replica-less shard %s hedged", name)
		}
	}
	if got := snap.Sum("asm_shard_budget_exhausted_total"); got != 0 {
		t.Errorf("budget exhausted %d times under a generous budget, want 0", got)
	}

	// Leg 3 — the event-trace replay: the bracketed run reconstructs to
	// exactly the harness-reported counters, the failover edge is in the
	// stream, and the net-layer replay matches the registry's scrape.
	runs := trace.SplitRuns(col.Events())
	verified := false
	for _, run := range runs {
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
	full := trace.ReplayEvents(col.Events())
	if got := snap.Sum("asm_shard_failovers_total"); got != full.Failovers {
		t.Errorf("registry failovers %d != replayed failovers %d", got, full.Failovers)
	}
	if got := snap.Sum("asm_shard_hedges_total"); got != full.Hedges {
		t.Errorf("registry hedges %d != replayed hedges %d", got, full.Hedges)
	}
	if got := snap.Sum("asm_net_sends_total"); got != full.NetSends {
		t.Errorf("registry sends %d != replayed sends %d", got, full.NetSends)
	}
	if got := snap.Sum("asm_net_recvs_total"); got != full.NetRecvs {
		t.Errorf("registry recvs %d != replayed recvs %d", got, full.NetRecvs)
	}

	// Books at zero: no pinned frames, no goroutine leaks.
	if got := netDB.Pool.PinnedFrames(); got != 0 {
		t.Errorf("pinned frames after query = %d, want 0", got)
	}
	walClient.Close()
	router.Close()
	stopRepl()
	replSrv.Close()
	for i := 0; i < fleet; i++ {
		srvs[i].Close()
	}
	leakcheck.CheckWithin(t, before, 5*time.Second)
}

// TestShardNoReplicaSkipObjectPoisonedSet kills a replica-less shard
// before the query runs: under SkipObject the query must complete
// partial, quarantining exactly the complex objects with a component on
// the dead shard — predicted up front from the generator's page map and
// the router's own assignment — and assembling every other object
// byte-identical to the oracle.
func TestShardNoReplicaSkipObjectPoisonedSet(t *testing.T) {
	db, err := gen.Build(gen.Config{
		NumComplexObjects: 120,
		Clustering:        gen.IntraObject,
		Seed:              777,
	})
	if err != nil {
		t.Fatal(err)
	}
	oracle := oracleRenders(t, db)
	comp, err := db.ComponentPages()
	if err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(t.TempDir(), "manifest")
	if err := db.SaveManifest(manifest); err != nil {
		t.Fatal(err)
	}
	if err := db.Pool.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// A local fleet: three fault-injectable members, no replicas.
	const fleet = 3
	const victim = 0
	reg := metrics.NewRegistry()
	var faulty [fleet]*disk.Faulty
	var members [fleet]Member
	for i := 0; i < fleet; i++ {
		data := disk.New(0)
		copyPages(t, db.Device, data)
		faulty[i] = disk.NewFaulty(data, disk.FaultConfig{})
		members[i] = Member{Name: fmt.Sprintf("s%d", i), Primary: faulty[i]}
	}
	router, err := New(Config{
		Members: members[:],
		Breaker: BreakerConfig{
			FailureThreshold:  2,
			OpenTimeout:       10 * time.Millisecond,
			HalfOpenSuccesses: 1,
		},
		Retry:    disk.RetryPolicy{MaxAttempts: 2, BaseBackoff: 50 * time.Microsecond, MaxBackoff: 200 * time.Microsecond},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	// The poisoned set, predicted before anything fails: every root with
	// a component page owned by the victim.
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

	mp, err := gen.LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	netDB, err := gen.OpenDatabaseOn(router, mp, 64)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the victim before the query: every read of its pages fails
	// transiently, forever, and nothing is cached.
	faulty[victim].SetConfig(disk.FaultConfig{Seed: 3, TransientRate: 1, TransientFailures: 1 << 30})
	if err := netDB.Pool.EvictAll(); err != nil {
		t.Fatal(err)
	}

	// A deliberately tiny budget: the first few poisoned accesses spend
	// it on retries, the rest surface immediately — either way SkipObject
	// quarantines, and the partial result below proves the outcome is
	// identical.
	qcol := qtrace.NewCollector(8)
	qt, root := qcol.Begin("shard-skip")
	budget := NewBudget(8)
	ctx := WithBudget(qtrace.With(context.Background(), root), budget)

	op := assembly.New(rootsIter(netDB.Roots), netDB.Store, netDB.Template, assembly.Options{
		Window:          8,
		CustomScheduler: assembly.NewShardElevator(router.Shards(), router.ShardOf),
		ShardPrefetch:   true,
		FaultPolicy:     assembly.SkipObject,
	})
	op.BindContext(ctx)
	items, err := volcano.Drain(op)
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
	st := op.Stats()
	if st.Skipped != len(poisoned) {
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
	if got := budget.Remaining(); got != 0 {
		t.Errorf("budget remaining = %d, want 0", got)
	}
	snap := reg.Snapshot()
	if got := snap.Sum("asm_shard_budget_exhausted_total"); got < 1 {
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
