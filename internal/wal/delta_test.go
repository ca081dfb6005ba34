package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"revelation/internal/buffer"
	"revelation/internal/difftest"
	"revelation/internal/disk"
	"revelation/internal/gen"
	"revelation/internal/heap"
	"revelation/internal/object"
	"revelation/internal/page"
)

// fullImages is a log without AppendDelta: a pool attached to it logs a
// full image for every write, as it did before delta records existed.
type fullImages struct{ w *Writer }

func (f fullImages) Append(id disk.PageID, img []byte) (uint64, error) { return f.w.Append(id, img) }
func (f fullImages) SyncTo(lsn uint64) error                           { return f.w.SyncTo(lsn) }

const (
	deltaFrames    = 3
	deltaHeapPages = 4
)

// deltaSide is one run of a differential sequence: a heap file over a
// pool whose data device crashes at a write ordinal, logging to a device
// that does not crash — writes to the log differ between the two sides,
// writes to the data device do not.
type deltaSide struct {
	data *disk.Faulty
	cp   *disk.CrashPoint
	log  *disk.Sim
	w    *Writer
	pool *buffer.Pool
	file *heap.File

	inserted heap.RID // the last insert's
}

func newDeltaSide(t *testing.T, crashAt int64, torn bool, seed int64, deltas bool) *deltaSide {
	t.Helper()
	s := &deltaSide{cp: disk.NewCrashPoint(crashAt, torn, seed), log: disk.New(0)}
	s.data = disk.NewFaulty(disk.New(0), disk.FaultConfig{})
	s.data.SetCrash(s.cp)
	w, err := Open(s.log)
	if err != nil {
		t.Fatal(err)
	}
	s.w = w
	s.pool = buffer.New(s.data, deltaFrames)
	if deltas {
		s.pool.SetWAL(w)
	} else {
		s.pool.SetWAL(fullImages{w})
	}
	return s
}

// deltaOp is one step of a sequence, drawn once and run on both sides.
type deltaOp struct {
	kind string
	i    int // into the sequence's records; the page index for an insert
	data []byte
}

func (s *deltaSide) run(op deltaOp, rids []heap.RID) (string, error) {
	switch op.kind {
	case "create":
		f, err := heap.Create(s.pool, deltaHeapPages)
		s.file = f
		return "", err
	case "get":
		rec, err := s.file.Read(rids[op.i])
		return string(rec), err
	case "update", "resize":
		return "", s.file.Update(rids[op.i], len(op.data), func(rec []byte) { copy(rec, op.data) })
	case "insert":
		rid, err := s.file.InsertAt(op.i, op.data)
		s.inserted = rid
		return rid.String(), err
	case "flush":
		return "", s.pool.FlushAll()
	case "sync":
		return "", s.w.Sync()
	}
	panic(op.kind)
}

// cut ends the side as a crash would — the pool and the log's unsynced
// records are dropped — and recovers the data device from the log.
func (s *deltaSide) cut(seq *difftest.Seq) (res *Result, preBad int) {
	s.cp.Revive()
	bad, err := page.VerifyDevice(s.data)
	if err != nil {
		seq.Fatalf("pre-recovery scan: %v", err)
	}
	res, err = Recover(s.log, s.data, Options{})
	if err != nil {
		seq.Fatalf("recover: %v", err)
	}
	return res, len(bad)
}

// logKinds counts a log's records by kind.
func logKinds(t *testing.T, dev disk.Device) map[byte]int {
	t.Helper()
	kinds := map[byte]int{}
	if _, _, _, err := scan(dev, func(rec Record) error { kinds[rec.Kind]++; return nil }); err != nil {
		t.Fatal(err)
	}
	return kinds
}

// TestDeltaMatchesFullImages is the differential test of delta logging:
// 10 000 seeded sequences (400 under -short or -race) of gets,
// same-length and resizing updates, inserts, flushes and syncs over a
// heap file, each run twice — once logging through the Writer, which
// takes deltas, and once through fullImages. The data device crashes at
// a drawn write ordinal, cleanly or torn, or the sequence runs out; at
// that cut both data devices are recovered from their logs and must be
// byte-identical, page for page, and every page must verify.
func TestDeltaMatchesFullImages(t *testing.T) {
	met := map[string]int{}
	t.Parallel()
	difftest.Walk(t, 0, difftest.Count(10000, 400), func(seq *difftest.Seq) {
		seed := seq.Seed
		rng := rand.New(rand.NewSource(seed))
		var crashAt int64
		if rng.Intn(3) != 0 {
			crashAt = 1 + rng.Int63n(16)
		}
		torn := rng.Intn(2) == 0
		got := newDeltaSide(t, crashAt, torn, seed, true)
		want := newDeltaSide(t, crashAt, torn, seed, false)
		seq.Tag = fmt.Sprintf("crash at %d, torn %v", crashAt, torn)

		var rids []heap.RID
		var lens []int
		steps := 10 + rng.Intn(40)
		for ; seq.Step < steps; seq.Step++ { // from -1: the heap's creation
			op := deltaOp{kind: "create"}
			if seq.Step >= 0 {
				op = drawDeltaOp(rng, lens)
			}
			gr, gerr := got.run(op, rids)
			wr, werr := want.run(op, rids)
			if gr != wr || fmt.Sprint(gerr) != fmt.Sprint(werr) {
				seq.Fatalf("%s: %q, %v; full images: %q, %v", op.kind, gr, gerr, wr, werr)
			}
			if gerr != nil {
				if errors.Is(gerr, disk.ErrCrashed) {
					met["crash"]++
					break
				}
				if seq.Step < 0 {
					seq.Fatalf("create: %v", gerr)
				}
				continue
			}
			switch op.kind {
			case "insert":
				rids = append(rids, got.inserted)
				lens = append(lens, len(op.data))
			case "resize":
				lens[op.i] = len(op.data)
				met["resize"]++
			}
		}

		gres, gbad := got.cut(seq)
		wres, wbad := want.cut(seq)
		wres.TailOffset = gres.TailOffset // the one thing the logs' sizes change
		if *gres != *wres || gbad != wbad {
			seq.Fatalf("recovered %s (%d torn pages); full images %s (%d)", gres, gbad, wres, wbad)
		}
		if gbad > 0 {
			met["torn page repaired"]++
		}
		if n := got.data.NumPages(); n != want.data.NumPages() {
			seq.Fatalf("%d data pages, full images %d", n, want.data.NumPages())
		}
		gb, wb := make([]byte, disk.DefaultPageSize), make([]byte, disk.DefaultPageSize)
		for p := disk.PageID(0); int(p) < got.data.NumPages(); p++ {
			if err := errors.Join(got.data.ReadPage(p, gb), want.data.ReadPage(p, wb)); err != nil {
				seq.Fatalf("read page %d: %v", p, err)
			}
			if !bytes.Equal(gb, wb) {
				seq.Fatalf("page %d recovers differently from the delta log", p)
			}
			if err := page.Verify(gb); err != nil {
				seq.Fatalf("page %d after recovery: %v", p, err)
			}
		}
		kinds := logKinds(t, got.log)
		if logKinds(t, want.log)[RecDelta] != 0 {
			seq.Fatalf("the full-image log holds deltas")
		}
		if kinds[RecDelta] > 0 {
			met["delta"]++
			if gres.Redone > kinds[RecPage] {
				met["delta redone"]++
			}
		}
	})
	for _, what := range []string{"crash", "torn page repaired", "resize", "delta", "delta redone"} {
		if met[what] == 0 {
			t.Errorf("no sequence met a %s", what)
		}
	}
	t.Logf("met: %v", met)
}

// drawDeltaOp draws the next step; lens are the live records' lengths.
func drawDeltaOp(rng *rand.Rand, lens []int) deltaOp {
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	k := rng.Intn(10)
	if len(lens) == 0 && k < 6 {
		k = 6
	}
	switch {
	case k == 0:
		return deltaOp{kind: "get", i: rng.Intn(len(lens))}
	case k <= 4:
		i := rng.Intn(len(lens))
		return deltaOp{kind: "update", i: i, data: random(lens[i])}
	case k == 5:
		return deltaOp{kind: "resize", i: rng.Intn(len(lens)), data: random(1 + rng.Intn(64))}
	case k <= 7:
		return deltaOp{kind: "insert", i: rng.Intn(deltaHeapPages), data: random(1 + rng.Intn(64))}
	case k == 8:
		return deltaOp{kind: "flush"}
	default:
		return deltaOp{kind: "sync"}
	}
}

// flushCapture is a data device that keeps, while on, the last image
// written to each page.
type flushCapture struct {
	disk.Device
	on     bool
	images map[disk.PageID][]byte
}

func (c *flushCapture) WritePage(p disk.PageID, buf []byte) error {
	if c.on {
		c.images[p] = append(c.images[p][:0], buf...)
	}
	return c.Device.WritePage(p, buf)
}

// TestDeltaLogAudit is the update workload's durability audit, run on a
// generated database whose pool holds 40 of its pages: transactions of 32
// Get/Update pairs, one Sync each, and every 16 transactions an epoch
// ends — FlushAll, the log closed, and a fresh log attached. Each
// epoch's log is replayed onto an empty device: every page flushed in
// the epoch must replay byte-identical to its last flushed image and
// hold the values committed, and the log must be mostly deltas.
func TestDeltaLogAudit(t *testing.T) {
	data := &flushCapture{Device: disk.New(0), images: map[disk.PageID][]byte{}}
	db, err := gen.Build(gen.Config{NumComplexObjects: 60, Seed: 7, Device: data, BufferPages: 40})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	committed := map[object.OID]int32{}
	var serial int32
	const epochs, txns, perTxn = 4, 16, 32
	for epoch := 0; epoch < epochs; epoch++ {
		log := disk.New(0)
		w, err := Open(log)
		if err != nil {
			t.Fatal(err)
		}
		db.Pool.SetWAL(w)
		data.on = true
		clear(data.images)
		clear(committed)
		for txn := 0; txn < txns; txn++ {
			for i := 0; i < perTxn; i++ {
				oid := object.OID(1 + rng.Intn(int(db.NextOID)-1))
				o, err := db.Store.Get(oid)
				if err != nil {
					t.Fatal(err)
				}
				serial++
				o.Ints[1] = serial
				if err := db.Store.Update(o); err != nil {
					t.Fatal(err)
				}
				committed[oid] = serial
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Pool.FlushAll(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		data.on = false

		replay := disk.New(0)
		res, err := Recover(log, replay, Options{})
		if err != nil || res.TornTail || res.Records != txns*perTxn {
			t.Fatalf("epoch %d: %v, %v; want %d records", epoch, res, err, txns*perTxn)
		}
		buf := make([]byte, replay.PageSize())
		for p, img := range data.images {
			if err := replay.ReadPage(p, buf); err != nil {
				t.Fatalf("epoch %d: flushed page %d not in the log: %v", epoch, p, err)
			}
			if err := page.Verify(buf); err != nil || !bytes.Equal(buf, img) {
				t.Fatalf("epoch %d: page %d replays differently from its flushed image (%v)", epoch, p, err)
			}
		}
		for oid, v := range committed {
			rid, _, err := db.Store.WhereIs(oid)
			if err != nil {
				t.Fatal(err)
			}
			if err := replay.ReadPage(rid.Page, buf); err != nil {
				t.Fatal(err)
			}
			rec, err := page.Wrap(buf).Get(rid.Slot)
			if err != nil {
				t.Fatal(err)
			}
			if o, err := object.Decode(rec); err != nil || o.Ints[1] != v {
				t.Fatalf("epoch %d: %v replays as %+v (%v), committed %d", epoch, oid, o, err, v)
			}
		}
		kinds := logKinds(t, log)
		if kinds[RecDelta] <= kinds[RecPage] {
			t.Errorf("epoch %d: %d deltas beside %d page images", epoch, kinds[RecDelta], kinds[RecPage])
		}
		t.Logf("epoch %d: %d images, %d deltas, %.1f log bytes per update, %d pages flushed",
			epoch, kinds[RecPage], kinds[RecDelta], float64(res.TailOffset)/(txns*perTxn), len(data.images))
	}
}

// TestApplyRecordRefusals: a delta is applied onto exactly the page
// state it follows and skipped on a page at or past its own LSN; on
// every other page it fails with ErrDeltaGap and changes nothing. A
// delta whose bytes do not fit the page past its header fails without
// being a gap.
func TestApplyRecordRefusals(t *testing.T) {
	ps := disk.DefaultPageSize
	const at = 6 // the LSN of the page each case starts from
	bytes8 := []byte("8 bytes!")
	cases := []struct {
		name  string
		torn  bool
		rec   Record
		apply bool
		want  error // ErrDeltaGap, errOther or nil
	}{
		{"follows the page", false, Record{Kind: RecDelta, LSN: 7, Prev: at, Off: 100, Img: bytes8}, true, nil},
		{"already applied", false, Record{Kind: RecDelta, LSN: at, Prev: 5, Off: 100, Img: bytes8}, false, nil},
		{"older than the page", false, Record{Kind: RecDelta, LSN: 3, Prev: 9, Off: 100, Img: bytes8}, false, nil},
		{"follows an older state", false, Record{Kind: RecDelta, LSN: 8, Prev: 5, Off: 100, Img: bytes8}, false, ErrDeltaGap},
		{"follows a state the page has not reached", false, Record{Kind: RecDelta, LSN: 9, Prev: 8, Off: 100, Img: bytes8}, false, ErrDeltaGap},
		{"page fails its checksum", true, Record{Kind: RecDelta, LSN: 7, Prev: at, Off: 100, Img: bytes8}, false, ErrDeltaGap},
		{"torn page past the delta", true, Record{Kind: RecDelta, LSN: 5, Prev: 4, Off: 100, Img: bytes8}, false, ErrDeltaGap},
		{"page never written", false, Record{Kind: RecDelta, Page: 3, LSN: 7, Prev: at, Off: 100, Img: bytes8}, false, ErrDeltaGap},
		{"inside the header", false, Record{Kind: RecDelta, LSN: 7, Prev: at, Off: page.HeaderSize - 1, Img: bytes8}, false, errOther},
		{"past the page", false, Record{Kind: RecDelta, LSN: 7, Prev: at, Off: ps - 4, Img: bytes8}, false, errOther},
		{"no bytes", false, Record{Kind: RecDelta, LSN: 7, Prev: at, Off: 100}, false, errOther},
	}
	for _, c := range cases {
		dev := disk.New(0)
		img := benchImage(ps, 0)
		page.Wrap(img).SetLSN(at)
		page.Stamp(img)
		if c.torn {
			img[ps-1] ^= 0xFF
		}
		if _, err := dev.Allocate(1); err != nil {
			t.Fatal(err)
		}
		if err := dev.WritePage(0, img); err != nil {
			t.Fatal(err)
		}
		applied, err := ApplyRecord(dev, c.rec, nil)
		switch {
		case c.want == errOther && (err == nil || errors.Is(err, ErrDeltaGap)):
			t.Errorf("%s: %v, want an error that is not a gap", c.name, err)
		case c.want != errOther && !errors.Is(err, c.want):
			t.Errorf("%s: %v, want %v", c.name, err, c.want)
		case applied != c.apply:
			t.Errorf("%s: applied %v, want %v", c.name, applied, c.apply)
		}
		want := img
		if c.apply {
			want = append([]byte(nil), img...)
			copy(want[c.rec.Off:], c.rec.Img)
			page.Wrap(want).SetLSN(c.rec.LSN)
			page.Stamp(want)
		}
		got := make([]byte, ps)
		if err := dev.ReadPage(0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) || dev.NumPages() != 1 {
			t.Errorf("%s: the device holds %d pages, and page 0 is not what it should be", c.name, dev.NumPages())
		}
	}
}

// errOther marks a refusal that is not ErrDeltaGap.
var errOther = errors.New("some other error")

// TestAppendDeltaRefusals: AppendDelta takes no record redo could not
// apply — bytes inside the header, none, or past the image, or a prev
// LSN that is no earlier record of this log — and takes no LSN for it.
func TestAppendDeltaRefusals(t *testing.T) {
	w, err := Open(disk.New(0))
	if err != nil {
		t.Fatal(err)
	}
	img := benchImage(disk.DefaultPageSize, 0)
	if _, err := w.Append(0, img); err != nil {
		t.Fatal(err)
	}
	unlogged := benchImage(disk.DefaultPageSize, 1)
	ahead := benchImage(disk.DefaultPageSize, 2)
	page.Wrap(ahead).SetLSN(9)
	for _, c := range []struct {
		name   string
		img    []byte
		off, n int
	}{
		{"inside the header", img, page.HeaderSize - 1, 8},
		{"no bytes", img, 100, 0},
		{"past the image", img, len(img) - 4, 8},
		{"never logged", unlogged, 100, 8},
		{"prev not yet logged", ahead, 100, 8},
	} {
		if _, err := w.AppendDelta(0, c.img, c.off, c.n); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if lsn, err := w.AppendDelta(0, img, 100, 8); err != nil || lsn != 2 {
		t.Errorf("a valid delta after the refusals: LSN %d, %v; want 2", lsn, err)
	}
}

// TestAppendDeltaSyncAllocs pins the delta append path as
// TestAppendSyncAllocs pins Append's: no allocation per record once the
// pending buffer has grown.
func TestAppendDeltaSyncAllocs(t *testing.T) {
	if difftest.Race {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	w, err := Open(disk.New(0))
	if err != nil {
		t.Fatal(err)
	}
	img := benchImage(disk.DefaultPageSize, 0)
	if _, err := w.Append(0, img); err != nil {
		t.Fatal(err)
	}
	per := appendSyncAllocs(t, w, func(i int) error {
		_, err := w.AppendDelta(disk.PageID(i), img, 100, 96)
		return err
	})
	if per > 0.05 {
		t.Errorf("%.4f allocations per appended delta, want at most 0.05", per)
	}
	t.Logf("%.4f allocations per appended delta", per)
}

// TestCleanEndNearPageEnd: a log whose last record ends within a
// header's length of its last page ends cleanly — the next header would
// run off the device, but what of it is there is zeros.
func TestCleanEndNearPageEnd(t *testing.T) {
	for gap := 1; gap < recHdrSize; gap++ {
		log := disk.New(0)
		w, err := Open(log)
		if err != nil {
			t.Fatal(err)
		}
		owner := string(bytes.Repeat([]byte("o"), log.PageSize()-gap-recHdrSize-4))
		if _, err := w.AppendOwnership(0, 1, owner); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		res, err := Recover(log, disk.New(0), Options{})
		if err != nil || res.TornTail || res.Records != 1 || res.TailOffset != int64(log.PageSize()-gap) {
			t.Errorf("log ending %d bytes before its page's end: %v, %v", gap, res, err)
		}
	}
}
