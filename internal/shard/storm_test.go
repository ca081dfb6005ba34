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
	"revelation/internal/pagesvc"
	"revelation/internal/volcano"
)

// TestOverlappedBatchStorm runs shard-prefetch queries — every batch
// with a read out on each member at once — over a two-member
// page-service fleet and a pool a sixth the size of the data, while
// other goroutines fix and unfix pages of the same pool and empty it,
// and one member's server is killed in mid-query and brought back. The
// queries must come out byte-identical to the fault-free oracle. A last
// query has the pool closed under it: it may fail, but must not hang.
// Nothing is left behind either way: no goroutine, no pin. What this
// is for is the race detector (shard-chaos-test runs it under -race).
func TestOverlappedBatchStorm(t *testing.T) {
	goroutines := leakcheck.Snapshot()
	db, err := gen.Build(gen.Config{NumComplexObjects: 120, Clustering: gen.Unclustered, Seed: 21})
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

	const fleet = 2
	var srvMu sync.Mutex
	srvs := make([]*pagesvc.Server, fleet)
	datas := make([]*disk.Sim, fleet)
	members := make([]Member, fleet)
	for i := range members {
		datas[i] = disk.New(0)
		copyPages(t, db.Device, datas[i])
		srvs[i] = pagesvc.NewServer([]disk.Device{datas[i]}, pagesvc.ServerConfig{})
		addr, err := srvs[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := pagesvc.Dial(pagesvc.ClientConfig{Primary: addr, Dev: pagesvc.DataDev, Timeout: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		members[i] = Member{Name: fmt.Sprintf("s%d", i), Primary: c}
	}
	defer func() {
		srvMu.Lock()
		defer srvMu.Unlock()
		for _, s := range srvs {
			s.Close()
		}
	}()
	router, err := New(Config{
		Members: members,
		Retry:   disk.RetryPolicy{MaxAttempts: 10, BaseBackoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	mp, err := gen.LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	netDB, err := gen.OpenDatabaseOn(router, mp, mp.FileNPages/6)
	if err != nil {
		t.Fatal(err)
	}
	pool := netDB.Pool

	query := func() ([]volcano.Item, error) {
		op := assembly.New(rootsIter(netDB.Roots), netDB.Store, netDB.Template, assembly.Options{
			Window:          8,
			CustomScheduler: assembly.NewShardElevator(router.Shards(), router.ShardOf),
			ShardPrefetch:   true,
			FaultPolicy:     assembly.RetryFaults,
		})
		return volcano.Drain(op)
	}

	// The meddlers: two fix and unfix pages of the file, one empties the
	// pool (which fails, harmlessly, whenever a page is pinned).
	stop := make(chan struct{})
	var meddlers sync.WaitGroup
	first, pages := netDB.Store.File.First(), netDB.Store.File.NumPages()
	for g := 0; g < 2; g++ {
		meddlers.Add(1)
		go func(seed int64) {
			defer meddlers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if f, err := pool.Fix(first + disk.PageID(rng.Intn(pages))); err == nil {
					pool.Unfix(f, false)
				}
			}
		}(int64(g))
	}
	meddlers.Add(1)
	go func() {
		defer meddlers.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				pool.EvictAll()
			}
		}
	}()

	// The killer: once member 1 has served some reads of the second
	// query, its server goes away and another takes its address.
	victim := members[1].Primary
	killAfter := make(chan int64, 1)
	killed := make(chan error, 1)
	go func() {
		base := <-killAfter
		deadline := time.Now().Add(10 * time.Second)
		for victim.Stats().Reads-base < 40 && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		srvMu.Lock()
		defer srvMu.Unlock()
		addr := srvs[1].Addr()
		srvs[1].Close()
		srvs[1] = pagesvc.NewServer([]disk.Device{datas[1]}, pagesvc.ServerConfig{})
		_, err := srvs[1].Listen(addr)
		killed <- err
	}()

	for q := 0; q < 3; q++ {
		if q == 1 {
			killAfter <- victim.Stats().Reads
		}
		items, err := query()
		if err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
		if len(items) != len(oracle) {
			t.Fatalf("query %d: %d objects, want %d", q, len(items), len(oracle))
		}
		for _, it := range items {
			inst := it.(*assembly.Instance)
			if got := render(inst); got != oracle[inst.OID()] {
				t.Fatalf("query %d: object %v assembled as %s, want %s", q, inst.OID(), got, oracle[inst.OID()])
			}
		}
	}
	if err := <-killed; err != nil {
		t.Fatalf("bringing member 1 back: %v", err)
	}

	// The pool is closed under the last query. Close refuses while a
	// page is pinned, so it is retried until it goes through.
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		for pool.Close() != nil {
			time.Sleep(50 * time.Microsecond)
		}
	}()
	if _, err := query(); err != nil && !errors.Is(err, buffer.ErrPoolClosed) {
		t.Fatalf("query over a pool being closed: %v", err)
	}
	<-closed
	close(stop)
	meddlers.Wait()
	if n := pool.PinnedFrames(); n != 0 {
		t.Errorf("%d frames left pinned", n)
	}
	router.Close()
	srvMu.Lock()
	for _, s := range srvs {
		s.Close()
	}
	srvMu.Unlock()
	leakcheck.Check(t, goroutines)
}
