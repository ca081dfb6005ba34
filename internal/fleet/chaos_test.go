package fleet

import (
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
	"revelation/internal/shard"
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

// checkOracle compares a drained result set against the oracle.
func checkOracle(t *testing.T, label string, items []volcano.Item, oracle map[object.OID]string) {
	t.Helper()
	if len(items) != len(oracle) {
		t.Fatalf("%s: assembled %d complex objects, oracle has %d", label, len(items), len(oracle))
	}
	for _, it := range items {
		inst := it.(*assembly.Instance)
		want, ok := oracle[inst.OID()]
		if !ok {
			t.Fatalf("%s: assembled unknown root %v", label, inst.OID())
		}
		if got := render(inst); got != want {
			t.Errorf("%s: root %v diverges from oracle:\n got %s\nwant %s", label, inst.OID(), got, want)
		}
	}
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
	before := leakcheck.Snapshot()

	db, err := gen.Build(gen.Config{
		NumComplexObjects: 150,
		Clustering:        gen.Unclustered,
		Seed:              4062,
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

	// Three primaries; the victim also serves a WAL device.
	const width = 3
	const victim = 0
	var srvs [width]*pagesvc.Server
	var addrs [width]string
	for i := 0; i < width; i++ {
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

	// The victim's replica: a follower applying the shipped WAL onto a
	// base backup, fronted by a READ-ONLY server that stops following
	// when promoted to writable.
	replData := disk.New(0)
	copyPages(t, db.Device, replData)
	repl := pagesvc.NewReplica(replData, pagesvc.ReplicaConfig{Primary: addrs[victim], WALDev: pagesvc.WALDev})
	var stopOnce sync.Once
	var replDone <-chan error
	stopRepl := func() {
		stopOnce.Do(func() {
			repl.Close()
			if replDone != nil {
				<-replDone
			}
		})
	}
	replSrv := pagesvc.NewServer([]disk.Device{replData}, pagesvc.ServerConfig{
		AppliedLSN: repl.AppliedLSN,
		ReadOnly:   true,
		OnPromote: func(epoch uint64, writable bool) {
			if writable {
				go stopRepl()
			}
		},
	})
	replAddr, err := replSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer replSrv.Close()
	replDone = repl.Start()
	defer stopRepl()

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
	var clients [width]*pagesvc.Client
	var members [width]shard.Member
	for i := 0; i < width; i++ {
		c, err := pagesvc.Dial(pagesvc.ClientConfig{
			Primary: addrs[i],
			Dev:     pagesvc.DataDev,
			Retry:   disk.RetryPolicy{MaxAttempts: 1},
			Timeout: time.Second,
			Tracer:  tr,
			Label:   fmt.Sprintf("net-s%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		members[i] = shard.Member{Name: fmt.Sprintf("s%d", i), Primary: c}
	}
	replClient, err := pagesvc.Dial(pagesvc.ClientConfig{
		Primary: replAddr,
		Dev:     pagesvc.DataDev,
		Retry:   disk.RetryPolicy{MaxAttempts: 1},
		Timeout: time.Second,
		Tracer:  tr,
		Label:   fmt.Sprintf("net-s%dr", victim),
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
	router, err := shard.New(shard.Config{
		Members: members[:],
		Breaker: shard.BreakerConfig{
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

	// Seed a nonzero durable LSN (the staleness floor and promotion
	// floor) and wait for the replica to catch up past it.
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
	floor := netWAL.DurableLSN()
	if floor == 0 {
		t.Fatal("durable LSN still zero after a flush")
	}
	waitApplied(t, repl, floor)

	// The control plane: probe every primary; the victim's member has
	// the replica handles so it is the only promotable one.
	ctrlMembers := make([]Member, width)
	for i := 0; i < width; i++ {
		i := i
		ctrlMembers[i] = Member{
			Name:  members[i].Name,
			Probe: clients[i].Ping,
			Epoch: func() uint64 { return router.Epoch(i) },
		}
	}
	ctrlMembers[victim].ReplicaLSN = members[victim].AppliedLSN
	ctrlMembers[victim].Promote = func(epoch uint64) error {
		// Promotion order matters: the replica's server goes writable
		// at the new epoch first (it starts refusing stale-epoch
		// zombies), then the router flips routing and stamps the epoch
		// into the promoted client.
		if err := replClient.Promote(epoch, floor, true); err != nil {
			return err
		}
		_, err := router.PromoteReplica(victim, epoch)
		return err
	}
	ctrl := NewController(Config{
		Members:       ctrlMembers,
		SustainedLoss: 30 * time.Millisecond,
		ProbeJitter:   2 * time.Millisecond,
		JitterSeed:    42,
		LSNFloor:      func() uint64 { return floor },
		Registry:      reg,
	})
	ctrlDone := make(chan struct{})
	go func() { defer close(ctrlDone); ctrl.Run(5 * time.Millisecond) }()
	stopCtrl := func() {
		ctrl.Stop()
		<-ctrlDone
	}
	defer stopCtrl()

	// Kill the victim once the query is demonstrably under way there,
	// and HOLD it down — unlike a blip, this must end in promotion.
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
	items, err := volcano.Drain(op)
	<-killed
	if err != nil {
		t.Fatalf("query did not survive the primary's death: %v", err)
	}
	checkOracle(t, "mid-kill query", items, oracle)

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
	if replSrv.Epoch() != 1 || replSrv.ReadOnly() {
		t.Errorf("promoted server epoch=%d readOnly=%v, want epoch 1, writable", replSrv.Epoch(), replSrv.ReadOnly())
	}
	if router.HasReplica(victim) {
		t.Error("victim still has a replica after promotion")
	}

	// Healthy again: a fresh query runs entirely on primaries — the
	// promoted member serves its share — and stays byte-identical.
	if err := netDB.Pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	degradedBefore := router.DegradedReads(victim)
	op2 := assembly.New(rootsIter(netDB.Roots), netDB.Store, netDB.Template, assembly.Options{
		Window:          8,
		CustomScheduler: assembly.NewShardElevator(router.Shards(), router.ShardOf),
		ShardPrefetch:   true,
		Tracer:          tr,
	})
	items2, err := volcano.Drain(op2)
	if err != nil {
		t.Fatalf("post-promotion query: %v", err)
	}
	checkOracle(t, "post-promotion query", items2, oracle)
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
	snap := reg.Snapshot()
	if got := snap.Value("asm_fleet_promotions_total"); got != 1 {
		t.Errorf("asm_fleet_promotions_total = %d, want 1", got)
	}
	rep := trace.ReplayEvents(col.Events())
	if rep.Promotions != 1 {
		t.Errorf("replay promotions = %d, want 1", rep.Promotions)
	}
	if rep.Failovers < 1 {
		t.Errorf("replay failovers = %d, want >= 1 (the degraded episode before promotion)", rep.Failovers)
	}
	if got := netDB.Pool.PinnedFrames(); got != 0 {
		t.Errorf("pinned frames after queries = %d, want 0", got)
	}

	stopCtrl()
	walClient.Close()
	router.Close()
	stopRepl()
	replSrv.Close()
	for i := 0; i < width; i++ {
		srvs[i].Close()
	}
	leakcheck.CheckWithin(t, before, 5*time.Second)
}

// TestFleetReshardAddMemberMidQuery is the resharding tentpole proof:
// while an assembly query streams over a three-member fleet, a fourth
// member joins and the migrator moves its pages live. The query must
// finish byte-identical to the oracle (no read ever sees zero or two
// owners), exactly the rendezvous-predicted page set must migrate, and
// the migrator's count, the registry, and the trace replay must agree.
func TestFleetReshardAddMemberMidQuery(t *testing.T) {
	before := leakcheck.Snapshot()

	db, err := gen.Build(gen.Config{
		NumComplexObjects: 150,
		Clustering:        gen.Unclustered,
		Seed:              907,
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

	names := []string{"m0", "m1", "m2"}
	const joiner = "m3"
	ms := make([]shard.Member, len(names))
	for i, n := range names {
		data := disk.New(0)
		copyPages(t, db.Device, data)
		ms[i] = shard.Member{Name: n, Primary: data}
	}
	reg := metrics.NewRegistry()
	col := trace.NewCollector()
	tr := trace.New(col)
	router, err := shard.New(shard.Config{
		Members:  ms,
		Retry:    disk.RetryPolicy{MaxAttempts: 4, BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond},
		Tracer:   tr,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	// The predicted delta, from name sets alone (stub routers): the
	// pages the joiner is owed under pure rendezvous.
	predict := func(withJoiner bool) *shard.Router {
		ns := append([]string{}, names...)
		if withJoiner {
			ns = append(ns, joiner)
		}
		stub := make([]shard.Member, len(ns))
		for i, n := range ns {
			stub[i] = shard.Member{Name: n, Primary: disk.New(router.NumPages())}
		}
		sr, err := shard.New(shard.Config{Members: stub})
		if err != nil {
			t.Fatal(err)
		}
		return sr
	}
	post := predict(true)
	defer post.Close()
	postJoiner := post.MemberIndex(joiner)
	predicted := map[disk.PageID]bool{}
	for p := 0; p < router.NumPages(); p++ {
		if post.ShardOf(disk.PageID(p)) == postJoiner {
			predicted[disk.PageID(p)] = true
		}
	}
	if len(predicted) == 0 {
		t.Fatal("degenerate: joiner owed no pages")
	}

	mp, err := gen.LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	netDB, err := gen.OpenDatabaseOn(router, mp, 64)
	if err != nil {
		t.Fatal(err)
	}

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
	defer mg.Close()

	// Join once the query is demonstrably under way.
	baseReads := router.Stats().Reads
	joinerDev := disk.New(0)
	joined := make(chan struct{})
	var migrated int
	var joinErr error
	go func() {
		defer close(joined)
		deadline := time.Now().Add(10 * time.Second)
		for router.Stats().Reads-baseReads < 15 {
			if time.Now().After(deadline) {
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
		migrated, joinErr = mg.Join(shard.Member{Name: joiner, Primary: joinerDev})
	}()

	// The elevator is built at the POST-join width: lanes are stable
	// identities, and pre-join no page routes to the empty fourth lane.
	op := assembly.New(rootsIter(netDB.Roots), netDB.Store, netDB.Template, assembly.Options{
		Window:          8,
		CustomScheduler: assembly.NewShardElevator(len(names)+1, router.ShardOf),
		ShardPrefetch:   true,
		Tracer:          tr,
	})
	items, err := volcano.Drain(op)
	<-joined
	if err != nil {
		t.Fatalf("query did not survive the live reshard: %v", err)
	}
	if joinErr != nil {
		t.Fatalf("join: %v", joinErr)
	}
	checkOracle(t, "mid-reshard query", items, oracle)

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
	snap := reg.Snapshot()
	if got := snap.Value("asm_fleet_pages_migrated_total"); got != int64(len(predicted)) {
		t.Errorf("asm_fleet_pages_migrated_total = %d, want %d", got, len(predicted))
	}
	rep := trace.ReplayEvents(col.Events())
	if rep.PagesMigrated != int64(len(predicted)) {
		t.Errorf("replay pages migrated = %d, want %d", rep.PagesMigrated, len(predicted))
	}

	// A post-reshard query over the rebalanced fleet is still
	// byte-identical, with the joiner's lane doing real work.
	if err := netDB.Pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	joinerReadsBefore := joinerDev.Stats().Reads
	op2 := assembly.New(rootsIter(netDB.Roots), netDB.Store, netDB.Template, assembly.Options{
		Window:          8,
		CustomScheduler: assembly.NewShardElevator(router.Shards(), router.ShardOf),
		ShardPrefetch:   true,
		Tracer:          tr,
	})
	items2, err := volcano.Drain(op2)
	if err != nil {
		t.Fatalf("post-reshard query: %v", err)
	}
	checkOracle(t, "post-reshard query", items2, oracle)
	if got := joinerDev.Stats().Reads - joinerReadsBefore; got == 0 {
		t.Error("post-reshard query never read from the joiner")
	}
	if got := netDB.Pool.PinnedFrames(); got != 0 {
		t.Errorf("pinned frames = %d, want 0", got)
	}
	leakcheck.CheckWithin(t, before, 5*time.Second)
}
