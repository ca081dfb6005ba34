package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"revelation/internal/assembly"
	"revelation/internal/buffer"
	"revelation/internal/disk"
	"revelation/internal/gen"
	"revelation/internal/leakcheck"
	"revelation/internal/metrics"
	"revelation/internal/object"
	"revelation/internal/pagesvc"
	"revelation/internal/volcano"
)

// stormFleet is a two-member page-service fleet under a router, a pool
// a sixth the size of the data over it, and the fault-free oracle of the
// database it holds. Every client, arm and the pool count into reg.
type stormFleet struct {
	t      *testing.T
	oracle map[object.OID]string
	reg    *metrics.Registry
	router *Router
	db     *gen.Database // over router
	arms   []disk.Device // the members' primary clients, as dialed

	mu    sync.Mutex // guards srvs against the killers
	srvs  []*pagesvc.Server
	datas []*disk.Sim
	rsrv  *pagesvc.Server // the replica's, if there is one
}

// newStormFleet builds the fleet. Member replicaOn (none if negative)
// also gets a replica: a second, read-only server over a copy of the
// data, which is static, so the replica is always fresh.
func newStormFleet(t *testing.T, replicaOn int) *stormFleet {
	db, err := gen.Build(gen.Config{NumComplexObjects: 120, Clustering: gen.Unclustered, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	f := &stormFleet{t: t, oracle: oracleRenders(t, db), reg: metrics.NewRegistry()}
	manifest := filepath.Join(t.TempDir(), "manifest")
	if err := db.SaveManifest(manifest); err != nil {
		t.Fatal(err)
	}
	if err := db.Pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	serve := func(label string, cfg pagesvc.ServerConfig) (*pagesvc.Server, *disk.Sim, *pagesvc.Client) {
		data := disk.New(0)
		copyPages(t, db.Device, data)
		srv := pagesvc.NewServer([]disk.Device{data}, cfg)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := pagesvc.Dial(pagesvc.ClientConfig{Primary: addr, Dev: pagesvc.DataDev, Timeout: time.Second, Label: label, Registry: f.reg})
		if err != nil {
			t.Fatal(err)
		}
		return srv, data, c
	}
	members := make([]Member, 2)
	for i := range members {
		srv, data, c := serve(fmt.Sprintf("net-s%d", i), pagesvc.ServerConfig{})
		f.srvs, f.datas, f.arms = append(f.srvs, srv), append(f.datas, data), append(f.arms, c)
		members[i] = Member{Name: fmt.Sprintf("s%d", i), Primary: c}
		if i == replicaOn {
			var rc *pagesvc.Client
			f.rsrv, _, rc = serve(fmt.Sprintf("net-s%dr", i), pagesvc.ServerConfig{ReadOnly: true})
			members[i].Replica = rc
		}
	}
	t.Cleanup(f.shutdown) // for a test that ends early
	// A breaker quick to open and quick to probe, and patience for an
	// access (some 110 ms of backoff) that outlasts the outages below.
	f.router, err = New(Config{
		Members: members,
		Breaker: BreakerConfig{FailureThreshold: 2, OpenTimeout: 10 * time.Millisecond},
		Retry:   disk.RetryPolicy{MaxAttempts: 10, BaseBackoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.router.RegisterMetrics(f.reg, "arm")
	mp, err := gen.LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	f.db, err = gen.OpenDatabaseOn(f.router, mp, mp.FileNPages/6)
	if err != nil {
		t.Fatal(err)
	}
	f.db.Pool.RegisterMetrics(f.reg, "storm")
	return f
}

// query assembles every root with shard prefetch. The window is wide
// enough that a lane's runs are several pages long.
func (f *stormFleet) query() ([]volcano.Item, error) {
	op := assembly.New(rootsIter(f.db.Roots), f.db.Store, f.db.Template, assembly.Options{
		Window:          64,
		CustomScheduler: assembly.NewShardElevator(f.router.Shards(), f.router.ShardOf),
		ShardPrefetch:   true,
		FaultPolicy:     assembly.RetryFaults,
	})
	return volcano.Drain(op)
}

// mustMatchOracle runs one query and demands the oracle's objects.
func (f *stormFleet) mustMatchOracle(what string) {
	f.t.Helper()
	items, err := f.query()
	if err != nil {
		f.t.Fatalf("%s: %v", what, err)
	}
	if len(items) != len(f.oracle) {
		f.t.Fatalf("%s: %d objects, want %d", what, len(items), len(f.oracle))
	}
	for _, it := range items {
		inst := it.(*assembly.Instance)
		if got := render(inst); got != f.oracle[inst.OID()] {
			f.t.Fatalf("%s: object %v assembled as %s, want %s", what, inst.OID(), got, f.oracle[inst.OID()])
		}
	}
}

// meddle starts the meddlers — two goroutines that fix and unfix pages
// of the file, one that empties the pool (which fails, harmlessly,
// whenever a page is pinned) — and returns what stops them.
func (f *stormFleet) meddle() (stop func()) {
	pool := f.db.Pool
	done := make(chan struct{})
	var meddlers sync.WaitGroup
	first, pages := f.db.Store.File.First(), f.db.Store.File.NumPages()
	for g := 0; g < 2; g++ {
		meddlers.Add(1)
		go func(seed int64) {
			defer meddlers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				if fr, err := pool.Fix(first + disk.PageID(rng.Intn(pages))); err == nil {
					pool.Unfix(fr, false)
				}
			}
		}(int64(g))
	}
	meddlers.Add(1)
	go func() {
		defer meddlers.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
				pool.EvictAll()
			}
		}
	}()
	return func() {
		close(done)
		meddlers.Wait()
	}
}

// after runs fn on a goroutine of its own once dev has served reads more
// reads than it has now (or ten seconds have passed), which lands it in
// the middle of the query the caller starts next — with runs in flight.
// The returned channel yields fn's error.
func after(dev disk.Device, reads int64, fn func() error) <-chan error {
	base := dev.Stats().Reads
	done := make(chan error, 1)
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for dev.Stats().Reads-base < reads && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		done <- fn()
	}()
	return done
}

// mustBookOnce runs one more query, undisturbed, and checks the books
// over it: every page the pool missed on was carried by exactly one
// answered request and moved exactly one arm, once — whichever path the
// router sent it down — and the requests were fewer than the pages,
// because runs travelled whole.
func (f *stormFleet) mustBookOnce(what string) {
	f.t.Helper()
	before := f.reg.Snapshot()
	f.mustMatchOracle(what)
	d := f.reg.Snapshot().Delta(before)
	misses := d.Value("asm_buffer_misses_total", "pool", "storm")
	booked, carried := d.Sum("asm_disk_reads_total"), d.Sum("asm_net_pages_total")
	sends, recvs := d.Sum("asm_net_sends_total"), d.Sum("asm_net_recvs_total")
	if misses == 0 || booked != misses || carried != misses {
		f.t.Errorf("%s: %d misses, %d reads booked on the arms, %d pages carried by answered requests", what, misses, booked, carried)
	}
	if sends != recvs || sends >= carried {
		f.t.Errorf("%s: %d requests, %d answers for %d pages: no run travelled whole", what, sends, recvs, carried)
	}
}

// closeUnder has the pool closed under a last query: it may fail, but
// must not hang, and must leave nothing pinned. Close refuses while a
// page is pinned, so it is retried until it goes through.
func (f *stormFleet) closeUnder() {
	pool := f.db.Pool
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		for pool.Close() != nil {
			time.Sleep(50 * time.Microsecond)
		}
	}()
	if _, err := f.query(); err != nil && !errors.Is(err, buffer.ErrPoolClosed) {
		f.t.Fatalf("query over a pool being closed: %v", err)
	}
	<-closed
	if n := pool.PinnedFrames(); n != 0 {
		f.t.Errorf("%d frames left pinned", n)
	}
}

// shutdown closes the router and every server, after which no goroutine
// of the fleet may be left. Closing twice is harmless.
func (f *stormFleet) shutdown() {
	if f.router != nil {
		f.router.Close()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.srvs {
		s.Close()
	}
	if f.rsrv != nil {
		f.rsrv.Close()
	}
}

// TestOverlappedBatchStorm runs shard-prefetch queries — every batch
// with a run of pages out on each member at once — over a two-member
// page-service fleet and a pool a sixth the size of the data, while
// other goroutines fix and unfix pages of the same pool and empty it,
// and the fleet changes under the runs in flight. In one storm a
// member's server is killed in mid-query, stays down long enough for its
// breaker to open between two runs, and comes back. In the other a
// member has a replica (so its runs go page by page, where a read can
// be hedged), its primary is killed for good in mid-query, the replica
// serves degraded, and in the middle of the next query the replica is
// promoted under a raised epoch and takes runs whole. Every query must
// come out byte-identical to the fault-free oracle; once the fleet is
// quiet again every page is booked on one arm exactly once; a last query
// has the pool closed under it. Nothing is left behind: no goroutine, no
// pin. What this is for is the race detector (shard-chaos-test runs it
// under -race).
func TestOverlappedBatchStorm(t *testing.T) {
	t.Run("kill-and-revive", func(t *testing.T) {
		goroutines := leakcheck.Snapshot()
		f := newStormFleet(t, -1)
		stop := f.meddle()
		f.mustMatchOracle("query 0")
		revived := after(f.arms[1], 40, func() error {
			f.mu.Lock()
			defer f.mu.Unlock()
			addr := f.srvs[1].Addr()
			f.srvs[1].Close()
			time.Sleep(30 * time.Millisecond)
			f.srvs[1] = pagesvc.NewServer([]disk.Device{f.datas[1]}, pagesvc.ServerConfig{})
			_, err := f.srvs[1].Listen(addr)
			return err
		})
		f.mustMatchOracle("query 1, member 1 killed under it")
		if err := <-revived; err != nil {
			t.Fatalf("bringing member 1 back: %v", err)
		}
		if f.router.Trips(1) == 0 {
			t.Errorf("member 1 was down for 30 ms of reads and its breaker never opened")
		}
		f.mustMatchOracle("query 2")
		stop()
		f.mustBookOnce("quiet query")
		f.closeUnder()
		f.shutdown()
		leakcheck.Check(t, goroutines)
	})

	t.Run("replica-and-promote", func(t *testing.T) {
		goroutines := leakcheck.Snapshot()
		f := newStormFleet(t, 0)
		stop := f.meddle()
		f.mustMatchOracle("query 0")
		killed := after(f.arms[0], 40, func() error {
			f.mu.Lock()
			defer f.mu.Unlock()
			return f.srvs[0].Close()
		})
		f.mustMatchOracle("query 1, member 0's primary killed under it")
		if err := <-killed; err != nil {
			t.Fatal(err)
		}
		if f.router.DegradedReads(0) == 0 {
			t.Errorf("member 0's primary is gone and no read ran degraded")
		}
		f.router.mu.Lock()
		replica := f.router.members[0].Replica
		f.router.mu.Unlock()
		promoted := after(replica, 40, func() error {
			old, err := f.router.PromoteReplica(0, 2)
			if err != nil {
				return err
			}
			return old.Close()
		})
		f.mustMatchOracle("query 2, member 0's replica promoted under it")
		if err := <-promoted; err != nil {
			t.Fatalf("promoting member 0's replica: %v", err)
		}
		if f.router.Epoch(0) != 2 || f.router.HasReplica(0) {
			t.Errorf("after the promotion member 0 is at epoch %d, replica %v", f.router.Epoch(0), f.router.HasReplica(0))
		}
		stop()
		f.mustBookOnce("quiet query")
		f.closeUnder()
		f.shutdown()
		leakcheck.Check(t, goroutines)
	})
}
