package fleet

// The rig: the one fleet the end-to-end proofs over a sharded fleet
// stand on. It builds a generated database and its fault-free oracle,
// base-backs the data up onto every member — a page server on the
// loopback or a local device — puts the members under a shard router,
// reopens the database over the router, and tears all of it down
// through t.Cleanup, ending in a goroutine-leak check.

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
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
	"revelation/internal/volcano"
	"revelation/internal/wal"
)

// spec is one proof's fleet. Where proofs differ — the clients'
// registry, the breaker, the retry policy, a read-only replica — each
// states its own value here.
type spec struct {
	db     gen.Config // the database the fleet serves
	names  []string   // the members', member 0 first
	net    bool       // members are page servers on the loopback, else local copies
	faulty bool       // local copies behind disk.Faulty, fault-free until set
	// replica gives member 0 a replica: a server over a copy of the
	// data, read-only if readOnly. With wal, member 0's server also
	// holds a log device, a WAL writer on it is the pool's, the replica
	// follows the log, and the log's durable LSN is the router's
	// staleness floor, seeded past zero.
	replica, readOnly, wal bool
	clients                *metrics.Registry   // where the member clients count, if anywhere
	router                 shard.Config        // all but Members and LSNFloor
	pool                   func(pages int) int // frames for a file of pages; nil: 64
}

// rig is one proof's fleet as newRig built it, torn down when the test
// ends.
type rig struct {
	t       *testing.T
	src     *gen.Database // the database as built, whose pages the members copy
	oracle  map[object.OID]string
	members []shard.Member // as the router was built
	router  *shard.Router
	db      *gen.Database // src reopened over the router
	data    []*disk.Sim   // each member's copy of the data
	faulty  []*disk.Faulty

	mu      sync.Mutex // guards srvs against a test's killers
	srvs    []*pagesvc.Server
	addrs   []string
	clients []*pagesvc.Client // each member's primary, as dialed

	replica    *pagesvc.Client // member 0's replica, as dialed
	replSrv    *pagesvc.Server
	follower   *pagesvc.Replica
	stopFollow func()
	walClient  *pagesvc.Client
	wal        *wal.Writer
}

func newRig(t *testing.T, s spec) *rig {
	t.Helper()
	rg := &rig{t: t}
	goroutines := leakcheck.Snapshot()
	t.Cleanup(func() {
		rg.close()
		leakcheck.Check(t, goroutines)
	})
	src, err := gen.Build(s.db)
	if err != nil {
		t.Fatal(err)
	}
	rg.src, rg.oracle = src, oracleRenders(t, src)
	manifest := filepath.Join(t.TempDir(), "manifest")
	if err := src.SaveManifest(manifest); err != nil {
		t.Fatal(err)
	}
	if err := src.Pool.FlushAll(); err != nil {
		t.Fatal(err)
	}

	for i, name := range s.names {
		data := rg.copy()
		rg.data = append(rg.data, data)
		var primary disk.Device = data
		switch {
		case s.net:
			devs := []disk.Device{data}
			if i == 0 && s.wal {
				devs = append(devs, disk.New(0)) // the log device
			}
			srv, addr := rg.serve(devs, pagesvc.ServerConfig{})
			rg.srvs, rg.addrs = append(rg.srvs, srv), append(rg.addrs, addr)
			rg.clients = append(rg.clients, rg.dial(addr, fmt.Sprintf("net-s%d", i), s.clients))
			primary = rg.clients[i]
		case s.faulty:
			rg.faulty = append(rg.faulty, disk.NewFaulty(data, disk.FaultConfig{}))
			primary = rg.faulty[i]
		}
		rg.members = append(rg.members, shard.Member{Name: name, Primary: primary})
	}
	if s.replica {
		rg.startReplica(s)
	}
	if s.wal {
		// The compute node's log writer, on member 0's log device. No
		// proof writes the log after a fault, so it needs no router.
		rg.walClient, err = pagesvc.Dial(pagesvc.ClientConfig{Primary: rg.addrs[0], Dev: pagesvc.WALDev})
		if err != nil {
			t.Fatal(err)
		}
		if rg.wal, err = wal.Open(rg.walClient); err != nil {
			t.Fatal(err)
		}
		s.router.LSNFloor = rg.wal.DurableLSN
	}
	s.router.Members = rg.members
	if rg.router, err = shard.New(s.router); err != nil {
		t.Fatal(err)
	}
	mp, err := gen.LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	frames := 64
	if s.pool != nil {
		frames = s.pool(mp.FileNPages)
	}
	if rg.db, err = gen.OpenDatabaseOn(rg.router, mp, frames); err != nil {
		t.Fatal(err)
	}
	if s.wal {
		rg.db.Pool.SetWAL(rg.wal)
		rg.seedFloor()
	}
	return rg
}

// copy base-backs-up the built database onto a fresh device.
func (rg *rig) copy() *disk.Sim {
	rg.t.Helper()
	src, dst := rg.src.Device, disk.New(0)
	if _, err := dst.Allocate(src.NumPages()); err != nil {
		rg.t.Fatal(err)
	}
	buf := make([]byte, src.PageSize())
	for p := disk.PageID(0); int(p) < src.NumPages(); p++ {
		if err := src.ReadPage(p, buf); err != nil {
			rg.t.Fatal(err)
		}
		if err := dst.WritePage(p, buf); err != nil {
			rg.t.Fatal(err)
		}
	}
	return dst
}

func (rg *rig) serve(devs []disk.Device, cfg pagesvc.ServerConfig) (*pagesvc.Server, string) {
	rg.t.Helper()
	srv := pagesvc.NewServer(devs, cfg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		rg.t.Fatal(err)
	}
	return srv, addr
}

// dial is a member's client, which sends each request once: failover
// is the router's decision, and an error must reach it.
func (rg *rig) dial(addr, label string, reg *metrics.Registry) *pagesvc.Client {
	rg.t.Helper()
	c, err := pagesvc.Dial(pagesvc.ClientConfig{
		Primary:  addr,
		Dev:      pagesvc.DataDev,
		Timeout:  time.Second,
		Registry: reg,
		Label:    label,
	})
	if err != nil {
		rg.t.Fatal(err)
	}
	return c
}

// startReplica gives member 0 its replica (see spec.replica). A
// following replica promoted writable stops applying its dead
// primary's log.
func (rg *rig) startReplica(s spec) {
	data := rg.copy()
	cfg := pagesvc.ServerConfig{ReadOnly: s.readOnly}
	if s.wal {
		rg.follower = pagesvc.NewReplica(data, pagesvc.ReplicaConfig{Primary: rg.addrs[0], WALDev: pagesvc.WALDev})
		cfg.AppliedLSN = rg.follower.AppliedLSN
		cfg.OnPromote = func(_ uint64, writable bool) {
			if writable {
				go rg.stopFollow()
			}
		}
		done := rg.follower.Start()
		var once sync.Once
		rg.stopFollow = func() {
			once.Do(func() {
				rg.follower.Close()
				<-done
			})
		}
	}
	var addr string
	rg.replSrv, addr = rg.serve([]disk.Device{data}, cfg)
	rg.replica = rg.dial(addr, "net-s0r", s.clients)
	rg.members[0].Replica = rg.replica
	if s.wal {
		rg.members[0].AppliedLSN = func() uint64 {
			lsn, err := rg.replica.AppliedLSN()
			if err != nil {
				return 0
			}
			return lsn
		}
	}
}

// seedFloor dirties a page through the log, so that the durable LSN —
// the failover staleness floor — is not zero, and waits for the
// replica to apply past it.
func (rg *rig) seedFloor() {
	t, pool := rg.t, rg.db.Pool
	t.Helper()
	f, err := pool.Fix(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Unfix(f, true); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	floor := rg.wal.DurableLSN()
	if floor == 0 {
		t.Fatal("durable LSN still zero after a flush")
	}
	deadline := time.Now().Add(10 * time.Second)
	for rg.follower.AppliedLSN() < floor {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at LSN %d, want >= %d", rg.follower.AppliedLSN(), floor)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// kill closes member i's server.
func (rg *rig) kill(i int) error {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	return rg.srvs[i].Close()
}

// close shuts the log client, the router (and with it every member
// client), the follower and every server down.
func (rg *rig) close() {
	if rg.walClient != nil {
		rg.walClient.Close()
	}
	if rg.router != nil {
		rg.router.Close()
	}
	if rg.stopFollow != nil {
		rg.stopFollow()
	}
	if rg.replSrv != nil {
		rg.replSrv.Close()
	}
	rg.mu.Lock()
	defer rg.mu.Unlock()
	for _, s := range rg.srvs {
		s.Close()
	}
}

// query assembles every root over the router with the per-shard
// elevator and shard prefetch, under o's window and fault policy (and
// its scheduler, if it brings one), bound to ctx if ctx is not nil.
func (rg *rig) query(ctx context.Context, o assembly.Options) (*assembly.Operator, []volcano.Item, error) {
	if o.CustomScheduler == nil {
		o.CustomScheduler = assembly.NewShardElevator(rg.router.Shards(), rg.router.ShardOf)
	}
	o.ShardPrefetch = true
	op := assembly.New(volcano.FromOIDs(rg.db.Roots), rg.db.Store, rg.db.Template, o)
	if ctx != nil {
		op.BindContext(ctx)
	}
	items, err := volcano.Drain(nil, op)
	return op, items, err
}

// checkOracle compares a drained result set against the oracle.
func (rg *rig) checkOracle(label string, items []volcano.Item) {
	t := rg.t
	t.Helper()
	if len(items) != len(rg.oracle) {
		t.Fatalf("%s: assembled %d complex objects, oracle has %d", label, len(items), len(rg.oracle))
	}
	for _, it := range items {
		inst := it.(*assembly.Instance)
		want, ok := rg.oracle[inst.OID()]
		if !ok {
			t.Fatalf("%s: assembled unknown root %v", label, inst.OID())
		}
		if got := render(inst); got != want {
			t.Errorf("%s: root %v diverges from oracle:\n got %s\nwant %s", label, inst.OID(), got, want)
		}
	}
}

// after runs fn on a goroutine of its own once dev has served reads
// more reads than it has now (or ten seconds have passed), which lands
// it in the middle of the query the caller starts next. The returned
// channel yields fn's error. The wait belongs to the rig's test: if the
// test ends first, a failure mid-query say, its cleanup stops the wait
// without running fn, or waits for a running fn to return, before the
// rig's teardown checks for leaked goroutines.
func (rg *rig) after(dev disk.Device, reads int64, fn func() error) <-chan error {
	base := dev.Stats().Reads
	done := make(chan error, 1)
	stop, exited := make(chan struct{}), make(chan struct{})
	rg.t.Cleanup(func() {
		close(stop)
		<-exited
	})
	go func() {
		defer close(exited)
		tick := time.NewTicker(100 * time.Microsecond)
		defer tick.Stop()
		deadline := time.Now().Add(10 * time.Second)
		for dev.Stats().Reads-base < reads && time.Now().Before(deadline) {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
		done <- fn()
	}()
	return done
}

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

// oracleRenders assembles the database locally, fault-free, and returns
// the canonical rendering of every complex object.
func oracleRenders(t *testing.T, db *gen.Database) map[object.OID]string {
	t.Helper()
	op := assembly.New(volcano.FromOIDs(db.Roots), db.Store, db.Template,
		assembly.Options{Window: 8, Scheduler: assembly.Elevator})
	items, err := volcano.Drain(nil, op)
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

// predictDelta is the set of pages, of the first pages, that a member
// named joiner is owed when it joins members named names, computed
// from the names alone (routers over stub devices): the rendezvous
// delta. No page may move between the members already there, and the
// delta may not be empty.
func predictDelta(t *testing.T, names []string, joiner string, pages int) map[disk.PageID]bool {
	t.Helper()
	mk := func(names []string) *shard.Router {
		ms := make([]shard.Member, len(names))
		for i, n := range names {
			ms[i] = shard.Member{Name: n, Primary: disk.New(pages)}
		}
		r, err := shard.New(shard.Config{Members: ms})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	pre, post := mk(names), mk(append(slices.Clone(names), joiner))
	defer pre.Close()
	defer post.Close()
	j := post.MemberIndex(joiner)
	delta := map[disk.PageID]bool{}
	for p := disk.PageID(0); int(p) < pages; p++ {
		if post.ShardOf(p) == j {
			delta[p] = true
		} else if pre.ShardOf(p) != post.ShardOf(p) {
			t.Fatalf("page %d moved between survivors on join", p)
		}
	}
	if len(delta) == 0 {
		t.Fatal("degenerate: joiner owed no pages")
	}
	return delta
}
