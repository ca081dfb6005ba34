package buffer

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"revelation/internal/disk"
)

func newPool(t *testing.T, devPages, frames int) (*Pool, *disk.Sim) {
	t.Helper()
	d := disk.New(devPages)
	return New(d, frames), d
}

func TestFixMissThenHit(t *testing.T) {
	p, d := newPool(t, 8, 4)
	f, err := p.Fix(3)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID() != 3 {
		t.Errorf("frame holds %d, want 3", f.ID())
	}
	if err := p.Unfix(f, false); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Fix(3); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Faults != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 fault 1 hit", st)
	}
	if d.Stats().Reads != 1 {
		t.Errorf("device reads = %d, want 1", d.Stats().Reads)
	}
}

func TestDirtyWriteBack(t *testing.T) {
	p, d := newPool(t, 8, 2)
	f, err := p.Fix(0)
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[0] = 0xCC
	if err := p.Unfix(f, true); err != nil {
		t.Fatal(err)
	}
	// Evict page 0 by filling both frames with other pages.
	for _, id := range []disk.PageID{1, 2} {
		fr, err := p.Fix(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Unfix(fr, false); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, d.PageSize())
	if err := d.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xCC {
		t.Error("dirty page not written back on eviction")
	}
	if p.Stats().Flushes != 1 {
		t.Errorf("Flushes = %d, want 1", p.Stats().Flushes)
	}
}

func TestAllFramesPinned(t *testing.T) {
	p, _ := newPool(t, 8, 2)
	f0, err := p.Fix(0)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := p.Fix(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Fix(2); !errors.Is(err, ErrNoFrames) {
		t.Errorf("Fix with all pinned err = %v, want ErrNoFrames", err)
	}
	// Re-fixing a resident page still works.
	again, err := p.Fix(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Frame{f0, f1, again} {
		if err := p.Unfix(f, false); err != nil {
			t.Fatal(err)
		}
	}
}

func TestUnfixUnpinned(t *testing.T) {
	p, _ := newPool(t, 4, 2)
	f, err := p.Fix(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Unfix(f, false); err != nil {
		t.Fatal(err)
	}
	if err := p.Unfix(f, false); !errors.Is(err, ErrNotPinned) {
		t.Errorf("double unfix err = %v, want ErrNotPinned", err)
	}
}

func TestLRUEvictsOldest(t *testing.T) {
	p, _ := newPool(t, 8, 3)
	for _, id := range []disk.PageID{0, 1, 2} {
		f, err := p.Fix(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Unfix(f, false); err != nil {
			t.Fatal(err)
		}
	}
	// Touch page 0 so page 1 is the LRU victim.
	f, _ := p.Fix(0)
	p.Unfix(f, false)
	f, err := p.Fix(5)
	if err != nil {
		t.Fatal(err)
	}
	p.Unfix(f, false)
	if p.Contains(1) {
		t.Error("LRU evicted the wrong page: 1 still resident")
	}
	if !p.Contains(0) || !p.Contains(2) {
		t.Error("LRU evicted a recently used page")
	}
}

func TestStickyPagesSurviveReplacement(t *testing.T) {
	p, _ := newPool(t, 16, 3)
	f, err := p.Fix(7)
	if err != nil {
		t.Fatal(err)
	}
	p.Unfix(f, false)
	p.SetSticky(7, true)
	// Stream enough pages to evict everything non-sticky repeatedly.
	for id := disk.PageID(0); id < 6; id++ {
		fr, err := p.Fix(id)
		if err != nil {
			t.Fatal(err)
		}
		p.Unfix(fr, false)
	}
	if !p.Contains(7) {
		t.Error("sticky page evicted while non-sticky candidates existed")
	}
	p.SetSticky(7, false)
	for id := disk.PageID(8); id < 12; id++ {
		fr, err := p.Fix(id)
		if err != nil {
			t.Fatal(err)
		}
		p.Unfix(fr, false)
	}
	if p.Contains(7) {
		t.Error("un-stickied page never evicted")
	}
}

func TestStickyFallbackWhenAllSticky(t *testing.T) {
	p, _ := newPool(t, 16, 2)
	for _, id := range []disk.PageID{1, 2} {
		f, err := p.Fix(id)
		if err != nil {
			t.Fatal(err)
		}
		p.Unfix(f, false)
		p.SetSticky(id, true)
	}
	// All frames sticky but unpinned: replacement must still succeed.
	f, err := p.Fix(9)
	if err != nil {
		t.Fatalf("Fix with all-sticky pool: %v", err)
	}
	p.Unfix(f, false)
}

func TestFixNew(t *testing.T) {
	p, d := newPool(t, 1, 2)
	f, err := p.FixNew()
	if err != nil {
		t.Fatal(err)
	}
	if f.ID() != 1 {
		t.Errorf("FixNew page id = %d, want 1", f.ID())
	}
	f.Data()[0] = 0x77
	if err := p.Unfix(f, true); err != nil {
		t.Fatal(err)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, d.PageSize())
	if err := d.ReadPage(1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x77 {
		t.Error("FixNew page contents not flushed")
	}
}

func TestPeakPins(t *testing.T) {
	p, _ := newPool(t, 8, 4)
	var frames []*Frame
	for id := disk.PageID(0); id < 3; id++ {
		f, err := p.Fix(id)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	for _, f := range frames {
		p.Unfix(f, false)
	}
	if got := p.Stats().PeakPins; got != 3 {
		t.Errorf("PeakPins = %d, want 3", got)
	}
}

func TestCloseDetectsLeakedPins(t *testing.T) {
	p, _ := newPool(t, 4, 2)
	f, err := p.Fix(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err == nil {
		t.Error("Close with pinned frame succeeded")
	}
	p.Unfix(f, false)
	if err := p.Close(); err != nil {
		t.Errorf("Close after unfix: %v", err)
	}
	if _, err := p.Fix(0); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Fix after close err = %v, want ErrPoolClosed", err)
	}
}

func TestReadErrorPropagates(t *testing.T) {
	d := disk.New(4)
	p := New(d, 2)
	boom := errors.New("boom")
	d.SetFault(func(pg disk.PageID, write bool) error {
		if pg == 2 && !write {
			return boom
		}
		return nil
	})
	if _, err := p.Fix(2); !errors.Is(err, boom) {
		t.Errorf("Fix err = %v, want boom", err)
	}
	// The pool must stay usable after the failure.
	f, err := p.Fix(1)
	if err != nil {
		t.Fatalf("pool unusable after read error: %v", err)
	}
	p.Unfix(f, false)
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Errorf("zero HitRate = %v", s.HitRate())
	}
	s = Stats{Hits: 3, Faults: 1}
	if s.HitRate() != 0.75 {
		t.Errorf("HitRate = %v, want 0.75", s.HitRate())
	}
}

// Invariant check under a random workload: contents read through the
// pool always match what was last written through the pool, with a pool
// much smaller than the working set.
func TestRandomWorkloadConsistency(t *testing.T) {
	d := disk.New(64)
	p := New(d, 8)
	rng := rand.New(rand.NewSource(42))
	shadow := make([]byte, 64) // first byte of each page
	for i := 0; i < 2000; i++ {
		id := disk.PageID(rng.Intn(64))
		f, err := p.Fix(id)
		if err != nil {
			t.Fatalf("Fix(%d): %v", id, err)
		}
		if f.Data()[0] != shadow[id] {
			t.Fatalf("page %d: got %d want %d", id, f.Data()[0], shadow[id])
		}
		dirty := rng.Intn(2) == 0
		if dirty {
			shadow[id]++
			f.Data()[0] = shadow[id]
		}
		if err := p.Unfix(f, dirty); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, p)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// --- fault propagation and retry (fault-tolerant I/O stack) ---

// TestPoolSurfacesDeviceFaults exercises disk.Sim.SetFault through the
// pool layer: an injected read fault must surface from Fix with the
// frame left reusable, and clear once the injector is removed.
func TestPoolSurfacesDeviceFaults(t *testing.T) {
	p, d := newPool(t, 8, 2)
	boom := errors.New("injected read fault")
	d.SetFault(func(pg disk.PageID, write bool) error {
		if pg == 5 && !write {
			return boom
		}
		return nil
	})
	if _, err := p.Fix(5); !errors.Is(err, boom) {
		t.Fatalf("Fix(5) = %v, want injected fault", err)
	}
	// The failed fix must not leak the frame or poison the table.
	if p.Contains(5) {
		t.Error("faulted page cached in pool")
	}
	if n := p.PinnedFrames(); n != 0 {
		t.Errorf("pinned frames after faulted fix = %d", n)
	}
	// Other pages still work, and the page recovers once the fault
	// clears.
	f, err := p.Fix(3)
	if err != nil {
		t.Fatalf("Fix(3) beside faulted page: %v", err)
	}
	if err := p.Unfix(f, false); err != nil {
		t.Fatal(err)
	}
	d.SetFault(nil)
	f, err = p.Fix(5)
	if err != nil {
		t.Fatalf("Fix(5) after clearing fault: %v", err)
	}
	if err := p.Unfix(f, false); err != nil {
		t.Fatal(err)
	}
}

// TestPoolWriteBackFaultSurfaces injects a write fault and checks that
// a dirty eviction reports it instead of losing the page silently.
func TestPoolWriteBackFaultSurfaces(t *testing.T) {
	p, d := newPool(t, 8, 1)
	f, err := p.Fix(1)
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[0] = 42
	if err := p.Unfix(f, true); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected write fault")
	d.SetFault(func(pg disk.PageID, write bool) error {
		if write {
			return boom
		}
		return nil
	})
	// Evicting the dirty page for another fix must surface the fault.
	if _, err := p.Fix(2); !errors.Is(err, boom) {
		t.Fatalf("Fix(2) over dirty faulted page = %v, want injected fault", err)
	}
	d.SetFault(nil)
	if _, err := p.Fix(2); err != nil {
		t.Fatalf("Fix(2) after clearing fault: %v", err)
	}
}

// TestPoolRetryGivesUpOnPermanent: a permanent fault costs one device
// call and reaches the caller classified as permanent.
func TestPoolRetryGivesUpOnPermanent(t *testing.T) {
	p, d := newPool(t, 8, 2)
	calls := 0
	d.SetFault(func(pg disk.PageID, write bool) error {
		calls++
		return fmt.Errorf("%w: page %d", disk.ErrPermanent, pg)
	})
	if _, err := p.Fix(2); !errors.Is(err, disk.ErrPermanent) {
		t.Fatalf("Fix = %v, want ErrPermanent", err)
	}
	if calls != 1 {
		t.Errorf("permanent fault retried: %d device calls", calls)
	}
	if got := p.Stats().PermanentErrors; got != 1 {
		t.Errorf("Stats.PermanentErrors = %d, want 1", got)
	}
}
