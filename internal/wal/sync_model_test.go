package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"testing"

	"revelation/internal/difftest"
	"revelation/internal/disk"
	"revelation/internal/page"
)

// modelWriter is the parent's Writer, kept as the reference model for
// the write path that replaced it: Open, the two-pass Append (Stamp,
// then the record CRC over the stamped image), AppendOwnership and the
// syncLocked that grew the log a page at a time and wrote every page
// through cur — verbatim but for the type name and the tracer and
// metric calls. TestSyncMatchesModel runs it against Writer step by
// step.
type modelWriter struct {
	dev      disk.Device
	pageSize int

	tail int64
	buf  []byte
	cur  []byte

	nextLSN     uint64
	appendedLSN uint64
	durableLSN  uint64

	err    error
	closed bool
}

func modelOpen(dev disk.Device) (*modelWriter, error) {
	w := &modelWriter{
		dev:      dev,
		pageSize: dev.PageSize(),
		cur:      make([]byte, dev.PageSize()),
	}
	end, next, _, err := scan(dev, nil)
	if err != nil {
		return nil, err
	}
	w.tail = end
	w.nextLSN = next
	w.appendedLSN = next - 1
	w.durableLSN = next - 1
	if off := int(end % int64(w.pageSize)); off != 0 {
		pi := disk.PageID(end / int64(w.pageSize))
		if err := dev.ReadPage(pi, w.cur); err != nil {
			return nil, fmt.Errorf("wal: open: reload tail page %d: %w", pi, err)
		}
		for i := off; i < w.pageSize; i++ {
			w.cur[i] = 0
		}
	}
	return w, nil
}

func (w *modelWriter) Append(id disk.PageID, img []byte) (uint64, error) {
	if w.closed {
		return 0, ErrClosed
	}
	if w.err != nil {
		return 0, w.err
	}
	lsn := w.nextLSN
	w.nextLSN++
	w.appendedLSN = lsn

	page.Wrap(img).SetLSN(lsn)
	page.Stamp(img)

	var hdr [recHdrSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], recMagic)
	binary.LittleEndian.PutUint64(hdr[4:], lsn)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(id))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(img)))
	crc := crc32.Update(0, castagnoli, hdr[:20])
	crc = crc32.Update(crc, castagnoli, img)
	binary.LittleEndian.PutUint32(hdr[20:], crc)

	w.buf = append(w.buf, hdr[:]...)
	w.buf = append(w.buf, img...)
	return lsn, nil
}

func (w *modelWriter) AppendOwnership(lo, hi disk.PageID, owner string) (uint64, error) {
	if hi <= lo {
		return 0, fmt.Errorf("wal: ownership range [%d, %d) is empty", lo, hi)
	}
	if owner == "" {
		return 0, errors.New("wal: ownership record needs an owner name")
	}
	if len(owner) > maxImage-4 {
		return 0, fmt.Errorf("wal: owner name %d bytes long", len(owner))
	}
	if w.closed {
		return 0, ErrClosed
	}
	if w.err != nil {
		return 0, w.err
	}
	lsn := w.nextLSN
	w.nextLSN++
	w.appendedLSN = lsn

	payload := make([]byte, 4+len(owner))
	binary.LittleEndian.PutUint32(payload[0:], uint32(hi))
	copy(payload[4:], owner)

	var hdr [recHdrSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], ownMagic)
	binary.LittleEndian.PutUint64(hdr[4:], lsn)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(lo))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(payload)))
	crc := crc32.Update(0, castagnoli, hdr[:20])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[20:], crc)

	w.buf = append(w.buf, hdr[:]...)
	w.buf = append(w.buf, payload...)
	return lsn, nil
}

func (w *modelWriter) Sync() error { return w.syncLocked() }

func (w *modelWriter) SyncTo(lsn uint64) error {
	if lsn == 0 || w.durableLSN >= lsn {
		return nil
	}
	if err := w.syncLocked(); err != nil {
		return err
	}
	if w.durableLSN < lsn {
		return fmt.Errorf("wal: sync to %d: log ends at %d", lsn, w.durableLSN)
	}
	return nil
}

func (w *modelWriter) syncLocked() error {
	if w.closed {
		return ErrClosed
	}
	if w.err != nil {
		return w.err
	}
	if len(w.buf) == 0 {
		return nil
	}
	pending := w.buf
	ps := int64(w.pageSize)
	for len(pending) > 0 {
		off := int(w.tail % ps)
		pi := int(w.tail / ps)
		n := w.pageSize - off
		if n > len(pending) {
			n = len(pending)
		}
		copy(w.cur[off:off+n], pending[:n])
		for i := off + n; i < w.pageSize; i++ {
			w.cur[i] = 0
		}
		for pi >= w.dev.NumPages() {
			if _, err := w.dev.Allocate(1); err != nil {
				w.err = fmt.Errorf("wal: sync: %w", err)
				return w.err
			}
		}
		if err := w.dev.WritePage(disk.PageID(pi), w.cur); err != nil {
			w.err = fmt.Errorf("wal: sync: %w", err)
			return w.err
		}
		w.tail += int64(n)
		pending = pending[n:]
		if off+n == w.pageSize {
			for i := range w.cur {
				w.cur[i] = 0
			}
		}
	}
	w.buf = w.buf[:0]
	w.durableLSN = w.appendedLSN
	return nil
}

func (w *modelWriter) Close() error {
	if w.closed {
		return nil
	}
	if err := w.syncLocked(); err != nil {
		return err
	}
	w.closed = true
	return nil
}

// logWrite is one WritePage that reached a log device: its ordinal is
// its index in the recording.
type logWrite struct {
	page disk.PageID
	sum  uint32
}

// recordingDevice records every WritePage call that the crash point
// counts — a write ordinal — on its way down. (A call the dead device
// refuses has none: the model may meet that refusal at an allocation.)
type recordingDevice struct {
	disk.Device
	cp     *disk.CrashPoint
	writes []logWrite
}

func (r *recordingDevice) WritePage(p disk.PageID, buf []byte) error {
	before := r.cp.Writes()
	sum := crc32.ChecksumIEEE(buf)
	err := r.Device.WritePage(p, buf)
	if r.cp.Writes() != before {
		r.writes = append(r.writes, logWrite{p, sum})
	}
	return err
}

// logSide is one half of the differential pair: a Sim under a Faulty
// (write faults, a crash point of its own) under the recorder.
type logSide struct {
	sim *disk.Sim
	cp  *disk.CrashPoint
	dev *recordingDevice
}

func newLogSide(ps int, faults disk.FaultConfig, crashAt int64, torn bool, seed int64) *logSide {
	sim := disk.NewSim(ps, 0)
	f := disk.NewFaulty(sim, faults)
	cp := f.CrashAfter(crashAt, torn, seed)
	return &logSide{sim: sim, cp: cp, dev: &recordingDevice{Device: f, cp: cp}}
}

// bytes reads the medium directly, past the Faulty, so a crashed side
// can be compared too.
func (s *logSide) bytes(t *testing.T) []byte {
	ps := s.sim.PageSize()
	out := make([]byte, s.sim.NumPages()*ps)
	for p := 0; p < s.sim.NumPages(); p++ {
		if err := s.sim.ReadPage(disk.PageID(p), out[p*ps:(p+1)*ps]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// sameLog reports whether two log media hold the same bytes, a page
// missing from one reading as the zero page the other holds there: the
// change grows the log for the whole sync before its first write, the
// model a page before each, so a sync cut short leaves the change with
// zero pages the model never allocated. The log format cannot tell
// them apart — a scan ends at a zero magic or at the device's end, at
// the same offset.
func sameLog(a, b []byte) bool {
	if len(a) < len(b) {
		a, b = b, a
	}
	return string(a[:len(b)]) == string(b) && page.ZeroImage(a[len(b):])
}

// errClass is what must match between the two sides' errors: the text,
// except under a crash, where the change may meet the dead device at a
// write the model reached through an allocation (or the other way
// round) — same class, same step, a different call named.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, disk.ErrCrashed):
		return "crashed"
	}
	return err.Error()
}

// TestSyncMatchesModel is the differential test of the write path:
// 10 000 seeded sequences (400 under -short or -race) of Append at page
// sizes 128 / 512 / 1 024 / 4 096 — mostly images of the log's page
// size, the one-pass CRC, and some of other lengths, the two passes —
// AppendOwnership (valid and not), Sync, SyncTo (behind, at and past
// the appended end), Close and reopen, over a log device with seeded
// permanent write faults, a crash point (clean or torn) or both, against
// the parent's writer. After every step the two sides agree on LSNs,
// stamped images, errors, Tail, DurableLSN, AppendedLSN, the log's
// bytes and every write that reached the device, in order, with its
// bytes — so crash-test's write ordinals cannot move.
//
// (Permanent faults only: a transient fault's budget is spent by reads
// as well as writes, and a reopen's scan reads a zero page the change
// allocated and the model did not — a different device, not a different
// writer.)
func TestSyncMatchesModel(t *testing.T) {
	sizes := []int{128, 512, 1024, 4096}
	met := map[string]int{}
	t.Parallel()
	difftest.Walk(t, 0, difftest.Count(10000, 400), func(seq *difftest.Seq) {
		seed := seq.Seed
		rng := rand.New(rand.NewSource(seed))
		ps := sizes[rng.Intn(len(sizes))]
		var faults disk.FaultConfig
		if rng.Intn(3) == 0 {
			faults = disk.FaultConfig{Seed: seed, Writes: true, PermanentRate: 0.02 + 0.1*rng.Float64()}
		}
		var crashAt int64
		if rng.Intn(2) == 0 {
			crashAt = 1 + rng.Int63n(40)
		}
		torn := rng.Intn(2) == 0
		got := newLogSide(ps, faults, crashAt, torn, seed)
		want := newLogSide(ps, faults, crashAt, torn, seed)
		runLogSequence(t, seq, rng, ps, got, want, met)
	})
	// The sequences must have met what the comparison is for.
	for _, what := range []string{"crash", "fault", "sync of 3+ pages", "reopen over a log"} {
		if met[what] == 0 {
			t.Errorf("no sequence met a %s", what)
		}
	}
	t.Logf("met: %v", met)
}

func runLogSequence(t *testing.T, seq *difftest.Seq, rng *rand.Rand, ps int, got, want *logSide, met map[string]int) {
	gw, gerr := Open(got.dev)
	mw, werr := modelOpen(want.dev)
	if gerr != nil || werr != nil {
		seq.Fatalf("open: %v, model %v", gerr, werr)
	}
	steps := 10 + rng.Intn(40)
	for seq.Step = 0; seq.Step < steps; seq.Step++ {
		var gerr, werr error
		var glsn, wlsn uint64
		op, writes := "?", len(got.dev.writes)
		switch k := rng.Intn(20); {
		case k < 9:
			n := ps
			switch rng.Intn(8) {
			case 0:
				n = ps / 2
			case 1:
				n = page.HeaderSize - 1 // too short to stamp
			case 2:
				n = ps + page.HeaderSize
			}
			id := disk.PageID(rng.Intn(1 << 20))
			op = fmt.Sprintf("Append(%d, %d bytes)", id, n)
			gimg := make([]byte, n)
			rng.Read(gimg)
			wimg := append([]byte(nil), gimg...)
			glsn, gerr = gw.Append(id, gimg)
			wlsn, werr = mw.Append(id, wimg)
			if string(gimg) != string(wimg) {
				seq.Fatalf("%s: stamped images differ", op)
			}
		case k < 11:
			lo := disk.PageID(rng.Intn(1000))
			hi := lo + disk.PageID(rng.Intn(64)) // empty one time in 64
			owner := fmt.Sprintf("s%d", rng.Intn(100))
			if rng.Intn(16) == 0 {
				owner = ""
			}
			op = fmt.Sprintf("AppendOwnership(%d, %d, %q)", lo, hi, owner)
			glsn, gerr = gw.AppendOwnership(lo, hi, owner)
			wlsn, werr = mw.AppendOwnership(lo, hi, owner)
		case k < 15:
			op = "Sync"
			gerr, werr = gw.Sync(), mw.Sync()
		case k < 18:
			lsn := uint64(rng.Int63n(int64(mw.appendedLSN) + 3))
			op = fmt.Sprintf("SyncTo(%d)", lsn)
			gerr, werr = gw.SyncTo(lsn), mw.SyncTo(lsn)
		case k < 19:
			op = "Close"
			gerr, werr = gw.Close(), mw.Close()
		default:
			// The restart after a crash (or none): the device works again
			// and a fresh writer resumes after the log's valid prefix.
			op = "reopen"
			got.cp.Revive()
			want.cp.Revive()
			g, gerr2 := Open(got.dev)
			m, werr2 := modelOpen(want.dev)
			gerr, werr = gerr2, werr2
			if gerr == nil && werr == nil {
				gw, mw = g, m
				if gw.Tail() > 0 {
					met["reopen over a log"]++
				}
			}
		}
		switch {
		case errors.Is(gerr, disk.ErrCrashed):
			met["crash"]++
		case errors.Is(gerr, disk.ErrPermanent):
			met["fault"]++
		case len(got.dev.writes)-writes >= 3:
			met["sync of 3+ pages"]++
		}
		if errClass(gerr) != errClass(werr) {
			seq.Fatalf("%s: error %v, model %v", op, gerr, werr)
		}
		if glsn != wlsn {
			seq.Fatalf("%s: LSN %d, model %d", op, glsn, wlsn)
		}
		if g, w := gw.Tail(), mw.tail; g != w {
			seq.Fatalf("%s: Tail %d, model %d", op, g, w)
		}
		if g, w := gw.DurableLSN(), mw.durableLSN; g != w {
			seq.Fatalf("%s: DurableLSN %d, model %d", op, g, w)
		}
		if g, w := gw.AppendedLSN(), mw.appendedLSN; g != w {
			seq.Fatalf("%s: AppendedLSN %d, model %d", op, g, w)
		}
		if g, w := got.cp.Writes(), want.cp.Writes(); g != w {
			seq.Fatalf("%s: crash point counted %d writes, model %d", op, g, w)
		}
		if len(got.dev.writes) != len(want.dev.writes) {
			seq.Fatalf("%s: %d writes reached the log, model %d",
				op, len(got.dev.writes), len(want.dev.writes))
		}
		for i, g := range got.dev.writes {
			if w := want.dev.writes[i]; g != w {
				seq.Fatalf("%s: write %d was page %d (sum %08x), model page %d (%08x)",
					op, i+1, g.page, g.sum, w.page, w.sum)
			}
		}
		// Only a sync, a close or a reopen writes or grows the log.
		if k := op[0]; k == 'S' || k == 'C' || k == 'r' {
			if !sameLog(got.bytes(t), want.bytes(t)) {
				seq.Fatalf("%s: log bytes differ (%d pages, model %d)",
					op, got.sim.NumPages(), want.sim.NumPages())
			}
		}
	}
}

// TestAppendSyncAllocs pins the write path's allocations: with the
// pending buffer warm, appending a page image and syncing it costs the
// log's growth only, one chunk of the memory medium per 64 pages plus
// the page index's doubling — at most 0.05 allocations per appended
// image, where a page of its own made it about one.
func TestAppendSyncAllocs(t *testing.T) {
	if difftest.Race {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	w, err := Open(disk.New(0))
	if err != nil {
		t.Fatal(err)
	}
	img := benchImage(disk.DefaultPageSize, 0)
	per := appendSyncAllocs(t, w, func(i int) error {
		_, err := w.Append(disk.PageID(i), img)
		return err
	})
	if per > 0.05 {
		t.Errorf("%.4f allocations per appended image, want at most 0.05", per)
	}
	t.Logf("%.4f allocations per appended image", per)
}

// appendSyncAllocs is the allocations per record of rounds of 32
// appends to w, each by appendOne, and a sync, once the pending buffer
// has reached its size.
func appendSyncAllocs(t *testing.T, w *Writer, appendOne func(i int) error) float64 {
	t.Helper()
	const perSync, rounds = 32, 256
	round := func() {
		for i := 0; i < perSync; i++ {
			if err := appendOne(i); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	round() // the pending buffer reaches its size
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		round()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / (perSync * rounds)
}

// countingAllocs counts the Allocate calls that reach a device.
type countingAllocs struct {
	disk.Device
	allocs int
}

func (c *countingAllocs) Allocate(n int) (disk.PageID, error) {
	c.allocs++
	return c.Device.Allocate(n)
}

// TestApplyRecordGrowsOnce: a record for page 1 000 applied to an empty
// device grows it in one Allocate (a replica's device may be remote,
// one round trip per call), to exactly the page, and installs the image.
func TestApplyRecordGrowsOnce(t *testing.T) {
	dev := &countingAllocs{Device: disk.New(0)}
	img := benchImage(disk.DefaultPageSize, 1)
	page.Wrap(img).SetLSN(7)
	page.Stamp(img)
	applied, err := ApplyRecord(dev, Record{Kind: RecPage, LSN: 7, Page: 1000, Img: img}, nil)
	if err != nil || !applied {
		t.Fatalf("ApplyRecord = %v, %v", applied, err)
	}
	if dev.allocs != 1 || dev.NumPages() != 1001 {
		t.Errorf("%d Allocate calls, %d pages; want 1 call, 1001 pages", dev.allocs, dev.NumPages())
	}
	buf := make([]byte, disk.DefaultPageSize)
	if err := dev.ReadPage(1000, buf); err != nil || string(buf) != string(img) {
		t.Errorf("page 1000 after apply: %v, image installed %v", err, string(buf) == string(img))
	}
	// A page inside the device grows nothing.
	if _, err := ApplyRecord(dev, Record{Kind: RecPage, LSN: 8, Page: 3, Img: img}, nil); err != nil || dev.allocs != 1 {
		t.Errorf("apply inside the device: %v, %d Allocate calls", err, dev.allocs)
	}
}
