package buffer

// Error-path regression tests: a pool that hits an error must refuse
// the operation without corrupting its frame table. These pin down two
// paths the crash-consistency work leans on — a failed flush must not
// let Close mark the pool closed (dropping dirty pages silently), and a
// double Unfix must not push a pin count negative.

import (
	"errors"
	"testing"

	"revelation/internal/disk"
)

func TestCloseAfterFailedFlushKeepsState(t *testing.T) {
	sim := disk.New(4)
	dev := disk.NewFaulty(sim, disk.FaultConfig{})
	p := New(dev, 2)

	f, err := p.Fix(0)
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[64] = 0xAB
	if err := p.Unfix(f, true); err != nil {
		t.Fatal(err)
	}

	// Arm permanent write faults: every flush now fails.
	dev.SetConfig(disk.FaultConfig{Seed: 1, PermanentRate: 1, Writes: true})
	if err := p.FlushAll(); err == nil {
		t.Fatal("FlushAll over a dead device succeeded")
	}
	if err := p.Close(); err == nil {
		t.Fatal("Close after a failed flush reported success — the dirty page would be dropped")
	}

	// The pool must remain open and intact: the dirty page is still
	// resident with its contents, and pin accounting still works.
	f2, err := p.Fix(0)
	if err != nil {
		t.Fatalf("Fix after failed close: %v", err)
	}
	if f2.Data()[64] != 0xAB {
		t.Error("dirty page contents lost across the failed flush")
	}
	if err := p.Unfix(f2, false); err != nil {
		t.Fatal(err)
	}

	// Disarm the faults: the same Close must now flush and succeed.
	dev.SetConfig(disk.FaultConfig{})
	if err := p.Close(); err != nil {
		t.Fatalf("Close after disarming faults: %v", err)
	}
	buf := make([]byte, sim.PageSize())
	if err := sim.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[64] != 0xAB {
		t.Error("dirty page never reached the device on the successful close")
	}
}

func TestDoubleUnfixKeepsFrameTable(t *testing.T) {
	p, _ := newPool(t, 4, 2)
	f, err := p.Fix(1)
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[0] = 7
	if err := p.Unfix(f, true); err != nil {
		t.Fatal(err)
	}
	if err := p.Unfix(f, true); !errors.Is(err, ErrNotPinned) {
		t.Fatalf("double unfix = %v, want ErrNotPinned", err)
	}
	// The frame table must be intact: the page resolves to the same
	// frame with its data, and the pin count is exactly one again.
	f2, err := p.Fix(1)
	if err != nil {
		t.Fatalf("Fix after double unfix: %v", err)
	}
	if f2 != f {
		t.Error("page 1 moved to a different frame after a rejected unfix")
	}
	if f2.Data()[0] != 7 {
		t.Error("page contents lost after a rejected unfix")
	}
	if n := p.PinnedFrames(); n != 1 {
		t.Errorf("pinned frames = %d, want 1", n)
	}
	if err := p.Unfix(f2, false); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFixNewLogFailureLeavesNoPin: a birth image the log refuses must
// not leave its frame pinned and in the table with nobody holding it —
// Close would fail "still pinned" for good.
func TestFixNewLogFailureLeavesNoPin(t *testing.T) {
	p, d := newPool(t, 4, 2)
	w := &flakyWAL{failNext: true}
	p.SetWAL(w)
	pages := d.NumPages()
	if _, err := p.FixNew(); !errors.Is(err, errWALDown) {
		t.Fatalf("FixNew over a failing log = %v, want the log's error", err)
	}
	if n := p.PinnedFrames(); n != 0 {
		t.Errorf("pinned frames after the failed FixNew = %d", n)
	}
	if p.Contains(disk.PageID(pages)) {
		t.Error("the page that was never logged is in the table")
	}
	checkInvariants(t, p)
	// Both frames are still there to be had, and the pool closes.
	for i := 0; i < 2; i++ {
		if _, err := p.FixNew(); err != nil {
			t.Fatalf("FixNew after the log recovered: %v", err)
		}
	}
	if _, err := p.FixNew(); !errors.Is(err, ErrNoFrames) {
		t.Fatalf("third FixNew in a pool of two = %v, want ErrNoFrames", err)
	}
	for i := range p.frames {
		f := &p.frames[i]
		if err := p.Unfix(f, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestFixNewWithoutFrameAllocatesNothing: ErrNoFrames must not cost a
// device page.
func TestFixNewWithoutFrameAllocatesNothing(t *testing.T) {
	p, d := newPool(t, 4, 1)
	f, err := p.Fix(0)
	if err != nil {
		t.Fatal(err)
	}
	pages := d.NumPages()
	if _, err := p.FixNew(); !errors.Is(err, ErrNoFrames) {
		t.Fatalf("FixNew with every frame pinned = %v, want ErrNoFrames", err)
	}
	if got := d.NumPages(); got != pages {
		t.Errorf("device grew from %d to %d pages for a FixNew that got no frame", pages, got)
	}
	if err := p.Unfix(f, false); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, p)
}

// TestErrorClassification: device failures are counted by class so
// callers can tell a flapping path (transient) from a dead page
// (permanent).
func TestErrorClassification(t *testing.T) {
	sim := disk.New(8)
	dev := disk.NewFaulty(sim, disk.FaultConfig{})
	p := New(dev, 4)

	// Endless transient faults on every read: the pool repeats nothing,
	// so the error reaches the caller still retryable.
	dev.SetConfig(disk.FaultConfig{Seed: 1, TransientRate: 1, TransientFailures: 100})
	if _, err := p.Fix(0); err == nil || !disk.Retryable(err) {
		t.Fatalf("Fix = %v, want retryable error", err)
	}
	st := p.Stats()
	if st.TransientErrors != 1 || st.PermanentErrors != 0 {
		t.Errorf("after transient exhaustion: %+v", st)
	}

	// Permanent faults classify on the other side.
	dev.SetConfig(disk.FaultConfig{Seed: 1, PermanentRate: 1})
	if _, err := p.Fix(1); err == nil || disk.Retryable(err) {
		t.Fatalf("Fix = %v, want permanent error", err)
	}
	st = p.Stats()
	if st.TransientErrors != 1 || st.PermanentErrors != 1 {
		t.Errorf("after permanent fault: %+v", st)
	}

	// A clean read counts in neither class.
	dev.SetConfig(disk.FaultConfig{})
	f, err := p.Fix(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Unfix(f, false); err != nil {
		t.Fatal(err)
	}
	st = p.Stats()
	if st.TransientErrors != 1 || st.PermanentErrors != 1 {
		t.Errorf("clean read changed error classes: %+v", st)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// kindLog is a DeltaWAL that records which kind of record each logged
// write was.
type kindLog struct {
	flakyWAL
	kinds string
}

func (w *kindLog) Append(id disk.PageID, img []byte) (uint64, error) {
	w.kinds += "I"
	return w.flakyWAL.Append(id, img)
}

func (w *kindLog) AppendDelta(id disk.PageID, img []byte, off, n int) (uint64, error) {
	w.kinds += "d"
	return w.flakyWAL.Append(id, img)
}

// TestUnfixRangeLogsDeltas: UnfixRange logs a delta only while the log
// holds the page's full image since the page was last clean — not
// before a page's first logged write, after a flush, an eviction, a new
// log or a failed append — and a plain dirty Unfix always logs the
// image. A WAL without AppendDelta gets images throughout.
func TestUnfixRangeLogsDeltas(t *testing.T) {
	p, _ := newPool(t, 4, 2)
	w := &kindLog{}
	p.SetWAL(w)
	write := func(id disk.PageID, ranged bool) error {
		f, err := p.Fix(id)
		if err != nil {
			t.Fatal(err)
		}
		if ranged {
			return p.UnfixRange(f, 100, 8)
		}
		return p.Unfix(f, true)
	}
	steps := []struct {
		name string
		do   func()
		want string // the records the step logs
	}{
		{"first write", func() { write(0, true) }, "I"},
		{"second write", func() { write(0, true) }, "d"},
		{"a whole-page write", func() { write(0, false) }, "I"},
		{"after it", func() { write(0, true) }, "d"},
		{"after a flush", func() { p.FlushAll(); write(0, true); write(0, true) }, "Id"},
		{"after a new log", func() { p.SetWAL(w); write(0, true) }, "I"},
		{"after an eviction", func() { write(1, true); write(2, true); write(0, true) }, "III"},
		{"a new page", func() {
			f, err := p.FixNew()
			if err != nil {
				t.Fatal(err)
			}
			p.UnfixRange(f, 100, 8)
		}, "Id"},
		{"after a failed append", func() {
			p.FlushAll()
			w.failNext = true
			if err := write(0, true); !errors.Is(err, errWALDown) {
				t.Fatalf("write over a failing log: %v", err)
			}
			write(0, true)
		}, "II"},
	}
	for _, s := range steps {
		w.kinds = ""
		s.do()
		if w.kinds != s.want {
			t.Errorf("%s: logged %q, want %q", s.name, w.kinds, s.want)
		}
	}
	plain := &flakyWAL{}
	p.SetWAL(plain)
	write(0, true)
	write(0, true)
	if plain.lsn != 2 {
		t.Errorf("a log without deltas took %d images for two writes", plain.lsn)
	}
	checkInvariants(t, p)
}
