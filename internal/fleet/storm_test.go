package fleet

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"revelation/internal/assembly"
	"revelation/internal/buffer"
	"revelation/internal/disk"
	"revelation/internal/gen"
	"revelation/internal/metrics"
	"revelation/internal/pagesvc"
	"revelation/internal/shard"
	"revelation/internal/volcano"
)

// storm is a two-member page-service fleet under a router and a pool a
// sixth the size of the data over it. Every client, arm and the pool
// count into reg.
type storm struct {
	*rig
	reg *metrics.Registry
}

// newStorm builds the fleet. With replica, member 0 also gets a
// replica: a second, read-only server over a copy of the data, which
// is static, so the replica is always fresh.
func newStorm(t *testing.T, replica bool) storm {
	reg := metrics.NewRegistry()
	rg := newRig(t, spec{
		db:    gen.Config{NumComplexObjects: 120, Clustering: gen.Unclustered, Seed: 21},
		names: []string{"s0", "s1"},
		net:   true, replica: replica, readOnly: true,
		clients: reg,
		// A breaker quick to open and quick to probe, and patience for
		// an access (some 110 ms of backoff) that outlasts the outages
		// below.
		router: shard.Config{
			Breaker: shard.BreakerConfig{FailureThreshold: 2, OpenTimeout: 10 * time.Millisecond},
			Retry:   disk.RetryPolicy{MaxAttempts: 10, BaseBackoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond},
		},
		pool: func(pages int) int { return pages / 6 },
	})
	rg.router.RegisterMetrics(reg, "arm")
	rg.db.Pool.RegisterMetrics(reg, "storm")
	return storm{rg, reg}
}

// query assembles every root with shard prefetch. The window is wide
// enough that a lane's runs are several pages long.
func (s storm) query() ([]volcano.Item, error) {
	_, items, err := s.rig.query(nil, assembly.Options{Window: 64, FaultPolicy: assembly.RetryFaults})
	return items, err
}

// mustMatchOracle runs one query and demands the oracle's objects.
func (s storm) mustMatchOracle(what string) {
	s.t.Helper()
	items, err := s.query()
	if err != nil {
		s.t.Fatalf("%s: %v", what, err)
	}
	s.checkOracle(what, items)
}

// meddle starts the meddlers — two goroutines that fix and unfix pages
// of the file, one that empties the pool (which fails, harmlessly,
// whenever a page is pinned) — and returns what stops them. The test's
// cleanup stops them too, should it end first, before the rig's
// teardown checks for leaked goroutines.
func (s storm) meddle() (stop func()) {
	pool := s.db.Pool
	done := make(chan struct{})
	var meddlers sync.WaitGroup
	first, pages := s.db.Store.File.First(), s.db.Store.File.NumPages()
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
	stop = sync.OnceFunc(func() {
		close(done)
		meddlers.Wait()
	})
	s.t.Cleanup(stop)
	return stop
}

// mustBookOnce runs one more query, undisturbed, and checks the books
// over it: every page the pool missed on was carried by exactly one
// answered request and moved exactly one arm, once — whichever path the
// router sent it down — and the requests were fewer than the pages,
// because runs travelled whole.
func (s storm) mustBookOnce(what string) {
	s.t.Helper()
	before := s.reg.Snapshot()
	s.mustMatchOracle(what)
	d := s.reg.Snapshot().Delta(before)
	misses := d.Value("asm_buffer_misses_total", "pool", "storm")
	booked, carried := d.Sum("asm_disk_reads_total"), d.Sum("asm_net_pages_total")
	sends, recvs := d.Sum("asm_net_sends_total"), d.Sum("asm_net_recvs_total")
	if misses == 0 || booked != misses || carried != misses {
		s.t.Errorf("%s: %d misses, %d reads booked on the arms, %d pages carried by answered requests", what, misses, booked, carried)
	}
	if sends != recvs || sends >= carried {
		s.t.Errorf("%s: %d requests, %d answers for %d pages: no run travelled whole", what, sends, recvs, carried)
	}
}

// closeUnder has the pool closed under a last query: it may fail, but
// must not hang, and must leave nothing pinned. Close refuses while a
// page is pinned, so it is retried until it goes through.
func (s storm) closeUnder() {
	pool := s.db.Pool
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		for pool.Close() != nil {
			time.Sleep(50 * time.Microsecond)
		}
	}()
	if _, err := s.query(); err != nil && !errors.Is(err, buffer.ErrPoolClosed) {
		s.t.Fatalf("query over a pool being closed: %v", err)
	}
	<-closed
	if n := pool.PinnedFrames(); n != 0 {
		s.t.Errorf("%d frames left pinned", n)
	}
}

// TestOverlappedBatchStorm runs shard-prefetch queries — every batch
// with a run of pages out on each member at once — over a two-member
// page-service fleet and a pool a sixth the size of the data, while
// other goroutines fix and unfix pages of the same pool and empty it,
// and the fleet changes under the runs in flight. In one storm a
// member's server is killed in mid-query, stays down long enough for its
// breaker to open between two runs, and comes back. In the other a
// member has a replica, its primary is killed for good in mid-query,
// the runs it then fails are read again page by page and the replica
// serves them degraded, and in the middle of the next query the replica
// is promoted under a raised epoch and takes runs whole. Every query must
// come out byte-identical to the fault-free oracle; once the fleet is
// quiet again every page is booked on one arm exactly once; a last query
// has the pool closed under it. Nothing is left behind: no goroutine, no
// pin. What this is for is the race detector (make race runs it
// under -race).
func TestOverlappedBatchStorm(t *testing.T) {
	t.Run("kill-and-revive", func(t *testing.T) {
		s := newStorm(t, false)
		stop := s.meddle()
		s.mustMatchOracle("query 0")
		revived := s.after(s.clients[1], 40, func() error {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.srvs[1].Close()
			time.Sleep(30 * time.Millisecond)
			s.srvs[1] = pagesvc.NewServer([]disk.Device{s.data[1]}, pagesvc.ServerConfig{})
			_, err := s.srvs[1].Listen(s.addrs[1])
			return err
		})
		s.mustMatchOracle("query 1, member 1 killed under it")
		if err := <-revived; err != nil {
			t.Fatalf("bringing member 1 back: %v", err)
		}
		if s.router.Trips(1) == 0 {
			t.Errorf("member 1 was down for 30 ms of reads and its breaker never opened")
		}
		s.mustMatchOracle("query 2")
		stop()
		s.mustBookOnce("quiet query")
		s.closeUnder()
	})

	t.Run("replica-and-promote", func(t *testing.T) {
		s := newStorm(t, true)
		stop := s.meddle()
		s.mustMatchOracle("query 0")
		killed := s.after(s.clients[0], 40, func() error { return s.kill(0) })
		s.mustMatchOracle("query 1, member 0's primary killed under it")
		if err := <-killed; err != nil {
			t.Fatal(err)
		}
		if s.router.DegradedReads(0) == 0 {
			t.Errorf("member 0's primary is gone and no read ran degraded")
		}
		promoted := s.after(s.replica, 40, func() error {
			old, err := s.router.PromoteReplica(0, 2)
			if err != nil {
				return err
			}
			return old.Close()
		})
		s.mustMatchOracle("query 2, member 0's replica promoted under it")
		if err := <-promoted; err != nil {
			t.Fatalf("promoting member 0's replica: %v", err)
		}
		if s.router.Epoch(0) != 2 || s.router.HasReplica(0) {
			t.Errorf("after the promotion member 0 is at epoch %d, replica %v", s.router.Epoch(0), s.router.HasReplica(0))
		}
		stop()
		s.mustBookOnce("quiet query")
		s.closeUnder()
	})
}
