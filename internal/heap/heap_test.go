package heap

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"revelation/internal/buffer"
	"revelation/internal/disk"
	"revelation/internal/page"
)

func newFile(t *testing.T, nPages, frames int) (*File, *disk.Sim) {
	t.Helper()
	d := disk.New(0)
	pool := buffer.New(d, frames)
	f, err := Create(pool, nPages)
	if err != nil {
		t.Fatal(err)
	}
	return f, d
}

func TestInsertReadRoundTrip(t *testing.T) {
	f, _ := newFile(t, 4, 8)
	rid, err := f.Insert([]byte("hello heap"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Read(rid)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello heap" {
		t.Errorf("Read = %q", got)
	}
}

func TestInsertAtPlacement(t *testing.T) {
	f, _ := newFile(t, 4, 8)
	rid, err := f.InsertAt(2, []byte("placed"))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := f.PageAt(2)
	if rid.Page != want {
		t.Errorf("record on page %d, want %d", rid.Page, want)
	}
}

// TestLoadRefusals: Load refuses an empty extent, passes a page's
// ErrPageFull out through fill, and stops at the page whose fill failed,
// having written only the pages before it.
func TestLoadRefusals(t *testing.T) {
	d := disk.New(0)
	pool := buffer.New(d, 4)
	if _, err := Load(pool, 0, nil); err == nil {
		t.Error("Load of 0 pages succeeded")
	}
	big := make([]byte, page.MaxRecordSize(d.PageSize()))
	_, err := Load(pool, 3, func(idx int, put func([]byte) (RID, error)) error {
		if idx < 1 {
			return nil
		}
		if _, err := put(big); err != nil {
			return err
		}
		_, err := put(big)
		return err
	})
	if !errors.Is(err, page.ErrPageFull) {
		t.Fatalf("overfull page: err = %v, want ErrPageFull", err)
	}
	if w := d.Stats().Writes; w != 1 {
		t.Errorf("%d pages written, want 1 (the page before the failed one)", w)
	}
	if s := pool.Stats(); s != (buffer.Stats{}) {
		t.Errorf("pool stats %+v after a load, want zero", s)
	}
}

func TestInsertAtBadIndex(t *testing.T) {
	f, _ := newFile(t, 2, 4)
	if _, err := f.InsertAt(2, []byte("x")); !errors.Is(err, ErrBadPage) {
		t.Errorf("InsertAt(2) err = %v, want ErrBadPage", err)
	}
	if _, err := f.InsertAt(-1, []byte("x")); !errors.Is(err, ErrBadPage) {
		t.Errorf("InsertAt(-1) err = %v, want ErrBadPage", err)
	}
}

func TestInsertFillsExtentThenFails(t *testing.T) {
	f, _ := newFile(t, 2, 4)
	rec := make([]byte, 96)
	n := 0
	for {
		_, err := f.Insert(rec)
		if err != nil {
			if !errors.Is(err, ErrFull) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		n++
	}
	if n != 18 { // 9 objects per page, 2 pages
		t.Errorf("capacity = %d records, want 18", n)
	}
}

func TestInsertAtFullPage(t *testing.T) {
	f, _ := newFile(t, 2, 4)
	rec := make([]byte, 96)
	for i := 0; i < 9; i++ {
		if _, err := f.InsertAt(0, rec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.InsertAt(0, rec); !errors.Is(err, page.ErrPageFull) {
		t.Errorf("overfull InsertAt err = %v, want ErrPageFull", err)
	}
}

func TestUpdateDelete(t *testing.T) {
	f, _ := newFile(t, 2, 4)
	rid, err := f.Insert([]byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Update(rid, len("v2-longer"), func(rec []byte) { copy(rec, "v2-longer") }); err != nil {
		t.Fatal(err)
	}
	got, _ := f.Read(rid)
	if string(got) != "v2-longer" {
		t.Errorf("after update: %q", got)
	}
	if err := f.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(rid); err == nil {
		t.Error("Read after Delete succeeded")
	}
	n, err := f.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("Count = %d, want 0", n)
	}
}

func TestRIDOutsideExtent(t *testing.T) {
	f, _ := newFile(t, 2, 4)
	bad := RID{Page: f.First() + disk.PageID(f.NumPages()), Slot: 0}
	if err := f.Get(bad, func([]byte) error { return nil }); !errors.Is(err, ErrNotInExtent) {
		t.Errorf("Get outside extent err = %v, want ErrNotInExtent", err)
	}
	if err := f.Update(bad, 0, func([]byte) {}); !errors.Is(err, ErrNotInExtent) {
		t.Errorf("Update outside extent err = %v", err)
	}
	if err := f.Delete(bad); !errors.Is(err, ErrNotInExtent) {
		t.Errorf("Delete outside extent err = %v", err)
	}
}

func TestScanPhysicalOrder(t *testing.T) {
	f, _ := newFile(t, 3, 6)
	// Place records out of logical order across pages.
	var want []string
	for _, pl := range []struct {
		page int
		val  string
	}{{2, "c"}, {0, "a"}, {1, "b"}, {0, "a2"}} {
		if _, err := f.InsertAt(pl.page, []byte(pl.val)); err != nil {
			t.Fatal(err)
		}
	}
	want = []string{"a", "a2", "b", "c"}
	var got []string
	err := f.Scan(func(rid RID, rec []byte) bool {
		got = append(got, string(rec))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("Scan saw %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Scan[%d] = %q, want %q (physical order)", i, got[i], want[i])
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	f, _ := newFile(t, 2, 4)
	for i := 0; i < 6; i++ {
		if _, err := f.Insert([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	err := f.Scan(func(RID, []byte) bool {
		n++
		return n < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("early stop visited %d records, want 3", n)
	}
}

func TestOpenExistingExtent(t *testing.T) {
	d := disk.New(0)
	pool := buffer.New(d, 8)
	f, err := Create(pool, 2)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := f.Insert([]byte("persist"))
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}

	pool2 := buffer.New(d, 8)
	f2 := Open(pool2, f.First(), f.NumPages())
	got, err := f2.Read(rid)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "persist" {
		t.Errorf("reopened file read = %q", got)
	}
}

func TestSmallPoolLargeFile(t *testing.T) {
	// The file is much larger than the pool: exercises eviction and
	// write-back through a realistic access pattern.
	f, _ := newFile(t, 32, 4)
	rng := rand.New(rand.NewSource(7))
	type kv struct {
		rid RID
		val []byte
	}
	var rows []kv
	for i := 0; i < 200; i++ {
		val := make([]byte, 40)
		rng.Read(val)
		rid, err := f.InsertAt(rng.Intn(32), val)
		if err != nil {
			if errors.Is(err, page.ErrPageFull) {
				continue
			}
			t.Fatal(err)
		}
		rows = append(rows, kv{rid, val})
	}
	for _, r := range rows {
		got, err := f.Read(r.rid)
		if err != nil {
			t.Fatalf("Read %v: %v", r.rid, err)
		}
		if !bytes.Equal(got, r.val) {
			t.Fatalf("record %v corrupted", r.rid)
		}
	}
	if c, _ := f.Count(); c != len(rows) {
		t.Errorf("Count = %d, want %d", c, len(rows))
	}
}

func TestGetDoesNotLeakPins(t *testing.T) {
	f, _ := newFile(t, 2, 4)
	rid, err := f.Insert([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := f.Get(rid, func([]byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n := f.Pool().PinnedFrames(); n != 0 {
		t.Errorf("pinned frames after Gets = %d, want 0", n)
	}
	// Error from the callback still unpins.
	boom := errors.New("boom")
	if err := f.Get(rid, func([]byte) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("callback error lost: %v", err)
	}
	if n := f.Pool().PinnedFrames(); n != 0 {
		t.Errorf("pinned frames after failing Get = %d, want 0", n)
	}
}

// --- device fault propagation through the heap layer ---

// TestHeapSurfacesDeviceFaults exercises disk.Sim.SetFault two layers
// up: a read fault on one extent page must surface from Get/Read and
// Scan, leave other pages readable, and clear with the injector.
func TestHeapSurfacesDeviceFaults(t *testing.T) {
	f, d := newFile(t, 4, 8)
	var rids []RID
	for i := 0; i < 4; i++ {
		rid, err := f.InsertAt(i, bytes.Repeat([]byte{byte(i)}, 16))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	// Drop everything to the device so reads hit it again.
	if err := f.Pool().EvictAll(); err != nil {
		t.Fatal(err)
	}

	bad := rids[2].Page
	d.SetFault(func(pg disk.PageID, write bool) error {
		if pg == bad && !write {
			return fmt.Errorf("%w: page %d", disk.ErrPermanent, pg)
		}
		return nil
	})
	if _, err := f.Read(rids[2]); !errors.Is(err, disk.ErrPermanent) {
		t.Fatalf("Read through faulted page = %v, want ErrPermanent", err)
	}
	// Records on healthy pages stay reachable.
	if rec, err := f.Read(rids[0]); err != nil || rec[0] != 0 {
		t.Fatalf("Read healthy page: rec=%v err=%v", rec, err)
	}
	// A full scan runs into the fault and reports it.
	if err := f.Scan(func(RID, []byte) bool { return true }); !errors.Is(err, disk.ErrPermanent) {
		t.Fatalf("Scan over faulted extent = %v, want ErrPermanent", err)
	}
	d.SetFault(nil)
	if err := f.Pool().EvictAll(); err != nil {
		t.Fatal(err)
	}
	if rec, err := f.Read(rids[2]); err != nil || rec[0] != 2 {
		t.Fatalf("Read after clearing fault: rec=%v err=%v", rec, err)
	}
}
