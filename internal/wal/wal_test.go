package wal

import (
	"errors"
	"fmt"
	"testing"

	"revelation/internal/buffer"
	"revelation/internal/difftest"
	"revelation/internal/disk"
	"revelation/internal/metrics"
	"revelation/internal/page"
)

// testImage builds a valid slotted-page image holding one record.
func testImage(t *testing.T, pageSize int, payload string) []byte {
	t.Helper()
	buf := make([]byte, pageSize)
	p := page.Wrap(buf)
	p.Init(0x5754) // arbitrary kind tag
	if _, err := p.Insert([]byte(payload)); err != nil {
		t.Fatalf("build test image: %v", err)
	}
	return buf
}

func TestAppendSyncRecover(t *testing.T) {
	walDev := disk.New(0)
	dataDev := disk.New(4)
	w, err := Open(walDev)
	if err != nil {
		t.Fatal(err)
	}

	want := map[disk.PageID][]byte{}
	for i := 0; i < 4; i++ {
		id := disk.PageID(i)
		img := testImage(t, dataDev.PageSize(), fmt.Sprintf("record for page %d", i))
		lsn, err := w.Append(id, img)
		if err != nil {
			t.Fatalf("Append(%d): %v", id, err)
		}
		if lsn != uint64(i+1) {
			t.Errorf("Append(%d) lsn = %d, want %d", id, lsn, i+1)
		}
		if got := page.Wrap(img).LSN(); got != lsn {
			t.Errorf("appended image LSN = %d, want %d", got, lsn)
		}
		if err := page.Verify(img); err != nil {
			t.Errorf("appended image not stamped: %v", err)
		}
		want[id] = append([]byte(nil), img...)
	}
	if w.DurableLSN() != 0 {
		t.Errorf("DurableLSN before sync = %d, want 0", w.DurableLSN())
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if w.DurableLSN() != 4 {
		t.Errorf("DurableLSN after sync = %d, want 4", w.DurableLSN())
	}

	// The data device never saw a flush: every page is still zero, so
	// every record must be redone.
	res, err := Recover(walDev, dataDev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 4 || res.Redone != 4 || res.SkippedOlder != 0 || res.TornTail {
		t.Errorf("recover result = %+v, want 4 records all redone, clean tail", res)
	}
	buf := make([]byte, dataDev.PageSize())
	for id, img := range want {
		if err := dataDev.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		if string(buf) != string(img) {
			t.Errorf("page %d differs from logged image after recovery", id)
		}
	}

	// Redo is idempotent: a second recovery finds every page current.
	res, err = Recover(walDev, dataDev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Redone != 0 || res.SkippedOlder != 4 {
		t.Errorf("second recovery = %+v, want 0 redone, 4 current", res)
	}
}

func TestRecoverPrefersNewestImage(t *testing.T) {
	walDev := disk.New(0)
	dataDev := disk.New(2)
	w, err := Open(walDev)
	if err != nil {
		t.Fatal(err)
	}
	old := testImage(t, dataDev.PageSize(), "version one")
	newer := testImage(t, dataDev.PageSize(), "version two, longer")
	if _, err := w.Append(1, old); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(1, newer); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(walDev, dataDev, Options{}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, dataDev.PageSize())
	if err := dataDev.ReadPage(1, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(newer) {
		t.Error("recovery left an older image in place")
	}
}

func TestRecoverDiscardsTornTail(t *testing.T) {
	walDev := disk.New(0)
	dataDev := disk.New(4)
	w, err := Open(walDev)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		img := testImage(t, dataDev.PageSize(), fmt.Sprintf("page %d", i))
		if _, err := w.Append(disk.PageID(i), img); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record: flip a byte near the end of the stream so
	// its CRC breaks.
	tail := w.Tail()
	ps := int64(walDev.PageSize())
	lastPage := disk.PageID((tail - 1) / ps)
	buf := make([]byte, walDev.PageSize())
	if err := walDev.ReadPage(lastPage, buf); err != nil {
		t.Fatal(err)
	}
	buf[int((tail-1)%ps)] ^= 0xFF
	if err := walDev.WritePage(lastPage, buf); err != nil {
		t.Fatal(err)
	}

	res, err := Recover(walDev, dataDev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 2 || !res.TornTail {
		t.Errorf("recover over torn log = %+v, want 2 records and a torn tail", res)
	}
	if res.NextLSN != 3 {
		t.Errorf("NextLSN = %d, want 3", res.NextLSN)
	}
}

func TestOpenResumesLog(t *testing.T) {
	walDev := disk.New(0)
	pageSize := disk.DefaultPageSize
	w, err := Open(walDev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(7, testImage(t, pageSize, "first")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(7, testImage(t, pageSize, "after close")); !errors.Is(err, ErrClosed) {
		t.Errorf("Append after Close = %v, want ErrClosed", err)
	}

	// A new writer must resume mid-page, continuing the LSN sequence
	// without clobbering the durable prefix.
	w2, err := Open(walDev)
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := w2.Append(8, testImage(t, pageSize, "second"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 2 {
		t.Errorf("resumed Append lsn = %d, want 2", lsn)
	}
	if err := w2.Sync(); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	_, next, torn, err := scan(walDev, func(rec Record) error {
		got = append(got, rec.LSN)
		return nil
	})
	if err != nil || torn {
		t.Fatalf("scan after resume: torn=%v err=%v", torn, err)
	}
	if len(got) != 2 || next != 3 {
		t.Errorf("scan saw %v (next %d), want LSNs 1,2 (next 3)", got, next)
	}
}

func TestSyncToSkipsWhenDurable(t *testing.T) {
	walDev := disk.New(0)
	w, err := Open(walDev)
	if err != nil {
		t.Fatal(err)
	}
	img := testImage(t, disk.DefaultPageSize, "x")
	lsn, err := w.Append(3, img)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SyncTo(0); err != nil {
		t.Errorf("SyncTo(0) = %v, want nil (LSN 0 is vacuously durable)", err)
	}
	if w.DurableLSN() != 0 {
		t.Error("SyncTo(0) synced the log")
	}
	if err := w.SyncTo(lsn); err != nil {
		t.Fatal(err)
	}
	writesAfter := walDev.Stats().Writes
	if err := w.SyncTo(lsn); err != nil {
		t.Fatal(err)
	}
	if walDev.Stats().Writes != writesAfter {
		t.Error("SyncTo of an already-durable LSN touched the device")
	}
	if err := w.SyncTo(99); err == nil {
		t.Error("SyncTo past the appended LSN succeeded")
	}
}

// TestPoolEnforcesWALBeforeData attaches a writer to a buffer pool and
// checks the flush rule end to end: dirty unfixes append, and by the
// time any data page reaches the device, the log is durable through
// that page's LSN.
func TestPoolEnforcesWALBeforeData(t *testing.T) {
	walDev := disk.New(0)
	dataDev := disk.New(8)
	w, err := Open(walDev)
	if err != nil {
		t.Fatal(err)
	}
	pool := buffer.New(dataDev, 4)
	pool.SetWAL(w)

	for i := 0; i < 3; i++ {
		f, err := pool.Fix(disk.PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		page.Wrap(f.Data()).Init(0x5754)
		if _, err := page.Wrap(f.Data()).Insert([]byte("payload")); err != nil {
			t.Fatal(err)
		}
		if err := pool.Unfix(f, true); err != nil {
			t.Fatal(err)
		}
	}
	if w.AppendedLSN() != 3 {
		t.Errorf("AppendedLSN = %d, want 3 (one per dirty unfix)", w.AppendedLSN())
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if w.DurableLSN() != 3 {
		t.Errorf("DurableLSN after FlushAll = %d, want 3 (WAL-before-data)", w.DurableLSN())
	}
	// Every flushed page must carry a verified checksum and its LSN.
	buf := make([]byte, dataDev.PageSize())
	for i := 0; i < 3; i++ {
		if err := dataDev.ReadPage(disk.PageID(i), buf); err != nil {
			t.Fatal(err)
		}
		if err := page.Verify(buf); err != nil {
			t.Errorf("flushed page %d: %v", i, err)
		}
		if page.Wrap(buf).LSN() == 0 {
			t.Errorf("flushed page %d has no LSN", i)
		}
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsCrossCheck runs a metered append/sync/recover cycle and
// demands the registry deltas agree with what the writer did, and the
// recovery pass redo exactly the logged pages, then none.
func TestMetricsCrossCheck(t *testing.T) {
	walDev := disk.New(0)
	dataDev := disk.New(4)
	reg := metrics.NewRegistry()

	w, err := Open(walDev)
	if err != nil {
		t.Fatal(err)
	}
	w.RegisterMetrics(reg, "test")

	for i := 0; i < 3; i++ {
		img := testImage(t, dataDev.PageSize(), fmt.Sprintf("p%d", i))
		if _, err := w.Append(disk.PageID(i), img); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	res, err := Recover(walDev, dataDev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Redone != 3 {
		t.Errorf("recover redid %d pages, want 3 (the data device held none)", res.Redone)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"asm_wal_appends_total": 3,
		"asm_wal_fsyncs_total":  1,
	} {
		if got := snap.Sum(name); got != want {
			t.Errorf("registry %s = %d, want %d", name, got, want)
		}
	}

	// A second recovery finds every page current.
	again, err := Recover(walDev, dataDev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Redone != 0 {
		t.Errorf("second recovery redid %d pages, want 0", again.Redone)
	}
}

// TestReaderNextAllocs pins the redo's read side: each record costs the
// one allocation of the image Next returns, and nothing for its header.
func TestReaderNextAllocs(t *testing.T) {
	if difftest.Race {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const records = 201 // AllocsPerRun's warm-up call reads one more
	log := disk.New(0)
	w, err := Open(log)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if _, err := w.Append(disk.PageID(i), benchImage(disk.DefaultPageSize, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(log)
	allocs := testing.AllocsPerRun(records-1, func() {
		if rec, err := r.Next(); err != nil || len(rec.Img) != disk.DefaultPageSize {
			t.Fatalf("record %d: %d-byte image, %v", r.LastLSN()+1, len(rec.Img), err)
		}
	})
	if allocs != 1 {
		t.Errorf("Reader.Next allocates %v times per record, want 1 (the image)", allocs)
	}
	if _, err := r.Next(); !errors.Is(err, ErrEndOfLog) {
		t.Errorf("after %d records: %v, want ErrEndOfLog", records, err)
	}
}
