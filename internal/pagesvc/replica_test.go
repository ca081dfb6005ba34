package pagesvc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"revelation/internal/buffer"
	"revelation/internal/difftest"
	"revelation/internal/disk"
	"revelation/internal/heap"
	"revelation/internal/page"
	"revelation/internal/wal"
)

// walImage builds a valid slotted-page image holding one record.
func walImage(t *testing.T, pageSize int, payload string) []byte {
	t.Helper()
	buf := make([]byte, pageSize)
	p := page.Wrap(buf)
	p.Init(0x5754)
	if _, err := p.Insert([]byte(payload)); err != nil {
		t.Fatal(err)
	}
	return buf
}

// waitApplied polls until the replica's applied LSN reaches lsn.
func waitApplied(t *testing.T, r *Replica, lsn uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for r.AppliedLSN() < lsn {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at LSN %d, want %d", r.AppliedLSN(), lsn)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplicaFollowsWAL: records appended and synced on the primary
// arrive on the replica's device, newest image per page winning.
func TestReplicaFollowsWAL(t *testing.T) {
	dataDev := disk.New(0)
	walDev := disk.New(0)
	w, err := wal.Open(walDev)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, []disk.Device{dataDev, walDev}, ServerConfig{})

	replDev := disk.New(0)
	repl := NewReplica(replDev, ReplicaConfig{Primary: addr, WALDev: WALDev})
	done := repl.Start()
	defer func() {
		repl.Close()
		<-done
	}()

	ps := walDev.PageSize()
	want := map[disk.PageID][]byte{}
	var last uint64
	for i := 0; i < 8; i++ {
		id := disk.PageID(i % 4) // pages rewritten: redo-if-newer matters
		img := walImage(t, ps, fmt.Sprintf("v%d of page %d", i, id))
		lsn, err := w.Append(id, img)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = append([]byte(nil), img...)
		last = lsn
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, repl, last)

	buf := make([]byte, ps)
	for id, img := range want {
		if err := replDev.ReadPage(id, buf); err != nil {
			t.Fatalf("replica read %d: %v", id, err)
		}
		if !bytes.Equal(buf, img) {
			t.Errorf("replica page %d diverges from primary", id)
		}
	}
}

// TestReplicaCrashMidFollowReconnects is the satellite acceptance
// test: a replica that dies mid-stream and comes back reconnects from
// its applied LSN, re-applies idempotently, and converges — including
// across a torn tail on the primary's log.
func TestReplicaCrashMidFollowReconnects(t *testing.T) {
	dataDev := disk.New(0)
	walDev := disk.New(0)
	w, err := wal.Open(walDev)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, []disk.Device{dataDev, walDev}, ServerConfig{})
	ps := walDev.PageSize()

	// First batch, followed to completion.
	var mid uint64
	for i := 0; i < 5; i++ {
		if mid, err = w.Append(disk.PageID(i), walImage(t, ps, fmt.Sprintf("first %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	replDev := disk.New(0)
	repl := NewReplica(replDev, ReplicaConfig{Primary: addr, WALDev: WALDev})
	done := repl.Start()
	waitApplied(t, repl, mid)

	// Crash the replica process: the follow stream dies mid-flight.
	repl.Close()
	<-done
	applied := repl.AppliedLSN()
	if applied != mid {
		t.Fatalf("applied %d, want %d", applied, mid)
	}

	// The primary moves on while the replica is down.
	var last uint64
	for i := 0; i < 5; i++ {
		if last, err = w.Append(disk.PageID(i), walImage(t, ps, fmt.Sprintf("second %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}

	// Restart: same device, watermark primed from the checkpointed LSN
	// — Follow resumes past everything already applied.
	repl2 := NewReplica(replDev, ReplicaConfig{Primary: addr, WALDev: WALDev})
	repl2.SetAppliedLSN(applied)
	done2 := repl2.Start()
	defer func() {
		repl2.Close()
		<-done2
	}()
	waitApplied(t, repl2, last)
	if got := repl2.records.Value(); got != 5 {
		t.Errorf("resumed replica applied %d records, want exactly the 5 new ones", got)
	}

	// Convergence check: every page equals the newest logged image.
	buf := make([]byte, ps)
	for i := 0; i < 5; i++ {
		img := walImage(t, ps, fmt.Sprintf("second %d", i))
		// Append stamped LSN+checksum on the primary's copy; re-stamp
		// the expectation the same way for byte equality.
		page.Wrap(img).SetLSN(mid + uint64(i) + 1)
		page.Stamp(img)
		if err := replDev.ReadPage(disk.PageID(i), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, img) {
			t.Errorf("page %d did not converge after reconnect", i)
		}
	}

	// A cold restart with no checkpoint replays from zero: every record
	// is a reapplied no-op, the state does not change.
	repl3 := NewReplica(replDev, ReplicaConfig{Primary: addr, WALDev: WALDev})
	done3 := repl3.Start()
	defer func() {
		repl3.Close()
		<-done3
	}()
	waitApplied(t, repl3, last)
	if got := repl3.records.Value(); got != 0 {
		t.Errorf("idempotent replay installed %d records, want 0", got)
	}
	if got := repl3.reapplied.Value(); got != 10 {
		t.Errorf("idempotent replay reapplied %d, want 10", got)
	}
}

// TestReplicaSurvivesPrimaryRestart: the follow loop reconnects on its
// own when the primary goes away and returns on the same address.
func TestReplicaSurvivesPrimaryRestart(t *testing.T) {
	dataDev := disk.New(0)
	walDev := disk.New(0)
	w, err := wal.Open(walDev)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewServer([]disk.Device{dataDev, walDev}, ServerConfig{})
	addr, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ps := walDev.PageSize()

	var first uint64
	if first, err = w.Append(0, walImage(t, ps, "before restart")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}

	replDev := disk.New(0)
	repl := NewReplica(replDev, ReplicaConfig{Primary: addr, WALDev: WALDev})
	done := repl.Start()
	defer func() {
		repl.Close()
		<-done
	}()
	waitApplied(t, repl, first)

	// Primary restarts on the same address; the log device survives (in
	// production it is the same file).
	s1.Close()
	time.Sleep(5 * time.Millisecond)
	s2 := NewServer([]disk.Device{dataDev, walDev}, ServerConfig{})
	if _, err := s2.Listen(addr); err != nil {
		t.Fatalf("rebind: %v", err)
	}
	defer s2.Close()

	var second uint64
	if second, err = w.Append(1, walImage(t, ps, "after restart")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, repl, second)
	if got := repl.reconnects.Value(); got < 1 {
		t.Errorf("reconnects = %d, want >= 1", got)
	}
}

// TestReplicaFollowsDeltas: a follower of a log of page images and
// deltas — same-length updates, resizes and inserts through a heap file,
// with flushes between them — ends byte-identical to the primary's
// flushed data device.
func TestReplicaFollowsDeltas(t *testing.T) {
	dataDev, walDev := disk.New(0), disk.New(0)
	w, err := wal.Open(walDev)
	if err != nil {
		t.Fatal(err)
	}
	pool := buffer.New(dataDev, 3)
	pool.SetWAL(w)
	file, err := heap.Create(pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(27))
	var rids []heap.RID
	var lens []int
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for i := 0; i < 300; i++ {
		switch {
		case len(rids) < 8 || i%9 == 0:
			rec := random(16 + rng.Intn(32))
			if rid, err := file.InsertAt(rng.Intn(4), rec); err == nil {
				rids, lens = append(rids, rid), append(lens, len(rec))
			}
		default:
			k := rng.Intn(len(rids))
			n := lens[k]
			if i%7 == 0 {
				n = 16 + rng.Intn(32) // a resize
			}
			rec := random(n)
			if err := file.Update(rids[k], n, func(b []byte) { copy(b, rec) }); err == nil {
				lens[k] = n
			}
		}
		if i%40 == 39 {
			if err := pool.FlushAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}

	_, addr := startServer(t, []disk.Device{dataDev, walDev}, ServerConfig{})
	replDev := disk.New(0)
	repl := NewReplica(replDev, ReplicaConfig{Primary: addr, WALDev: WALDev})
	done := repl.Start()
	defer func() {
		repl.Close()
		<-done
	}()
	waitApplied(t, repl, w.DurableLSN())

	deltas := 0
	r := wal.NewReader(walDev)
	for rec, err := r.Next(); err == nil; rec, err = r.Next() {
		if rec.Kind == wal.RecDelta {
			deltas++
		}
	}
	if deltas == 0 {
		t.Fatal("the primary's log holds no delta")
	}
	want, got := make([]byte, dataDev.PageSize()), make([]byte, dataDev.PageSize())
	for p := disk.PageID(0); int(p) < dataDev.NumPages(); p++ {
		if err := errors.Join(dataDev.ReadPage(p, want), replDev.ReadPage(p, got)); err != nil {
			t.Fatalf("page %d: %v", p, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("replica page %d diverges from the primary's", p)
		}
	}
	t.Logf("%d records applied, %d of them deltas", repl.records.Value(), deltas)
}

// TestReplicaStopsAtDeltaGap: a follower primed past a page's full image
// — its device never got the image — is shipped a delta it cannot
// apply. It stops with wal.ErrDeltaGap, not retrying, and its applied
// LSN stays where it was primed.
func TestReplicaStopsAtDeltaGap(t *testing.T) {
	dataDev, walDev := disk.New(0), disk.New(0)
	w, err := wal.Open(walDev)
	if err != nil {
		t.Fatal(err)
	}
	ps := walDev.PageSize()
	img := walImage(t, ps, "a record to change")
	if _, err := w.Append(0, img); err != nil {
		t.Fatal(err)
	}
	copy(img[ps-8:], "changed!")
	if _, err := w.AppendDelta(0, img, ps-8, 8); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, []disk.Device{dataDev, walDev}, ServerConfig{})

	repl := NewReplica(disk.New(0), ReplicaConfig{Primary: addr, WALDev: WALDev})
	repl.SetAppliedLSN(1)
	defer repl.Close()
	select {
	case err := <-repl.Start():
		if !errors.Is(err, wal.ErrDeltaGap) {
			t.Fatalf("follower past a gap: %v, want ErrDeltaGap", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the follower kept following past a gap")
	}
	if got := repl.AppliedLSN(); got != 1 {
		t.Errorf("applied LSN %d after the gap, want 1", got)
	}
}

// TestReplicaApplyAllocs pins a shipped record's apply at nothing, a
// page image and a delta alike: the record's bytes go to the device
// from the stream's buffer, which the device copies. Each run applies
// an image and the delta that follows it.
func TestReplicaApplyAllocs(t *testing.T) {
	if difftest.Race {
		t.Skip("the race detector allocates on its own account")
	}
	dev := disk.New(0)
	r := NewReplica(dev, ReplicaConfig{Primary: "127.0.0.1:0"})
	ps := dev.PageSize()
	const runs = 100
	recs := make([]wal.Record, 2*(runs+1))
	for i := range recs {
		lsn := uint64(i + 1)
		if i%2 == 1 {
			recs[i] = wal.Record{Kind: wal.RecDelta, LSN: lsn, Prev: lsn - 1, Off: ps - 8, Img: []byte{byte(i), 1, 2, 3, 4, 5, 6, 7}}
			continue
		}
		img := walImage(t, ps, fmt.Sprintf("image %03d", i))
		page.Wrap(img).SetLSN(lsn)
		page.Stamp(img)
		recs[i] = wal.Record{LSN: lsn, Img: img}
	}
	buf := make([]byte, ps)
	next := 0
	allocs := testing.AllocsPerRun(runs, func() { // and one warm-up run, which grows the device
		for _, rec := range recs[next : next+2] {
			if err := r.apply(rec, buf); err != nil {
				t.Fatal(err)
			}
		}
		next += 2
	})
	if allocs != 0 {
		t.Errorf("applying a shipped image and delta allocates %v times, want 0", allocs)
	}
	if got := r.records.Value(); got != int64(len(recs)) || r.AppliedLSN() != uint64(len(recs)) {
		t.Errorf("%d records applied up to LSN %d, want %d", got, r.AppliedLSN(), len(recs))
	}
}
