package buffer

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"revelation/internal/disk"
	"revelation/internal/page"
)

// scanPool is the pool as it chose its frames before the victim heap:
// every miss scans all frames for an empty one, lowest index first, and
// failing that scans them again for the smallest stamp among the
// unpinned ones, a first time passing over sticky frames and a second
// time not. It is kept as the reference model the differential test
// compares the real pool with, over a device of its own. Only what
// decides residency and the public counters is modelled; FixNew takes
// its frame before its device page and logs before it admits, as the
// real one does.
type scanPool struct {
	dev    disk.Device
	wal    WAL
	frames []*scanFrame
	table  map[disk.PageID]*scanFrame
	tick   int64
	pinned int
	stats  Stats

	evicted []disk.PageID // replaced pages, in order
}

type scanFrame struct {
	id            disk.PageID
	data          []byte
	pins          int
	dirty, sticky bool
	stamp         int64
	index         int
}

func newScanPool(dev disk.Device, n int, w WAL) *scanPool {
	m := &scanPool{dev: dev, wal: w, table: map[disk.PageID]*scanFrame{}}
	for i := 0; i < n; i++ {
		m.frames = append(m.frames, &scanFrame{id: disk.InvalidPage, data: make([]byte, dev.PageSize()), index: i})
	}
	return m
}

func (m *scanPool) classify(err error) {
	switch {
	case err == nil:
	case disk.Retryable(err):
		m.stats.TransientErrors++
	default:
		m.stats.PermanentErrors++
	}
}

func (m *scanPool) pin(f *scanFrame) {
	if f.pins++; f.pins == 1 {
		m.pinned++
	}
	m.stats.PeakPins = max(m.stats.PeakPins, m.pinned)
}

func (m *scanPool) fix(id disk.PageID) (*scanFrame, error) {
	m.tick++
	if f, ok := m.table[id]; ok {
		m.pin(f)
		f.stamp = m.tick
		m.stats.Hits++
		return f, nil
	}
	f, err := m.victim()
	if err != nil {
		return nil, err
	}
	if err := m.dev.ReadPage(id, f.data); err != nil {
		m.classify(err)
		return nil, err
	}
	if err := page.Verify(f.data); err != nil {
		m.stats.ChecksumFails++
		return nil, err
	}
	m.admit(f, id, false)
	m.stats.Faults++
	return f, nil
}

func (m *scanPool) fixNew() (*scanFrame, error) {
	f, err := m.victim()
	if err != nil {
		return nil, err
	}
	id, err := m.dev.Allocate(1)
	if err != nil {
		return nil, err
	}
	m.tick++
	clear(f.data)
	if m.wal != nil {
		if _, err := m.wal.Append(id, f.data); err != nil {
			return nil, err
		}
	}
	m.admit(f, id, true)
	return f, nil
}

func (m *scanPool) admit(f *scanFrame, id disk.PageID, dirty bool) {
	f.id, f.dirty, f.sticky, f.stamp = id, dirty, false, m.tick
	m.table[id] = f
	m.pin(f)
}

// victim is the parent commit's victimLocked, scan for scan.
func (m *scanPool) victim() (*scanFrame, error) {
	for _, f := range m.frames {
		if f.id == disk.InvalidPage {
			return f, nil
		}
	}
	victim := m.lruVictim(false)
	if victim == nil {
		victim = m.lruVictim(true)
	}
	if victim == nil {
		return nil, ErrNoFrames
	}
	if victim.dirty {
		if err := m.flush(victim); err != nil {
			return nil, err
		}
	}
	m.evicted = append(m.evicted, victim.id)
	delete(m.table, victim.id)
	victim.id = disk.InvalidPage
	victim.dirty = false
	victim.sticky = false
	m.stats.Evictions++
	return victim, nil
}

func (m *scanPool) lruVictim(allowSticky bool) *scanFrame {
	var victim *scanFrame
	for _, f := range m.frames {
		if f.pins > 0 {
			continue
		}
		if f.sticky && !allowSticky {
			continue
		}
		if victim == nil || f.stamp < victim.stamp {
			victim = f
		}
	}
	return victim
}

func (m *scanPool) flush(f *scanFrame) error {
	if m.wal != nil {
		if lsn := page.Wrap(f.data).LSN(); lsn > 0 {
			if err := m.wal.SyncTo(lsn); err != nil {
				return err
			}
		}
	}
	page.Stamp(f.data)
	if err := m.dev.WritePage(f.id, f.data); err != nil {
		m.classify(err)
		return err
	}
	f.dirty = false
	m.stats.Flushes++
	return nil
}

func (m *scanPool) unfix(f *scanFrame, dirty bool) error {
	if f.pins <= 0 {
		return ErrNotPinned
	}
	if f.pins--; f.pins == 0 {
		m.pinned--
	}
	if dirty {
		f.dirty = true
		if m.wal != nil {
			if _, err := m.wal.Append(f.id, f.data); err != nil {
				return err
			}
		}
	}
	return nil
}

func (m *scanPool) setSticky(id disk.PageID, sticky bool) {
	if f, ok := m.table[id]; ok {
		f.sticky = sticky
	}
}

func (m *scanPool) flushAll() error {
	for _, f := range m.frames {
		if f.id == disk.InvalidPage || !f.dirty {
			continue
		}
		if err := m.flush(f); err != nil {
			return err
		}
	}
	return nil
}

func (m *scanPool) evictAll() error {
	for _, f := range m.frames {
		if f.pins > 0 {
			return fmt.Errorf("page %d pinned", f.id)
		}
	}
	if err := m.flushAll(); err != nil {
		return err
	}
	for _, f := range m.frames {
		if f.id != disk.InvalidPage {
			delete(m.table, f.id)
			f.id = disk.InvalidPage
			f.sticky = false
		}
	}
	return nil
}

// flakyWAL is a log both pools append to, whose next append the driver
// can make fail.
type flakyWAL struct {
	lsn      uint64
	failNext bool
}

var errWALDown = errors.New("wal: injected append fault")

func (w *flakyWAL) Append(disk.PageID, []byte) (uint64, error) {
	if w.failNext {
		w.failNext = false
		return 0, errWALDown
	}
	w.lsn++
	return w.lsn, nil
}

func (w *flakyWAL) SyncTo(uint64) error { return nil }

// diffRig drives the real pool and the model through one sequence of
// operations and compares them after every step.
type diffRig struct {
	t    *testing.T
	rng  *rand.Rand
	seed int64
	step int

	real    *Pool
	model   *scanPool
	devs    [2]*disk.Sim // real's, model's
	wals    [2]*flakyWAL
	failIO  [2]bool       // the next read (0) or write (1) either device sees fails
	before  []disk.PageID // the page each of real's frames held before a fix
	evicted []disk.PageID // pages real replaced, in order
	agreed  int           // how much of evicted has been compared
	refused int           // operations that ended in ErrNoFrames

	held []heldPair
}

type heldPair struct {
	r *Frame
	m *scanFrame
}

const diffPageSize = 64

func newDiffRig(t *testing.T, seed int64, frames int) *diffRig {
	r := &diffRig{t: t, seed: seed, rng: rand.New(rand.NewSource(seed))}
	pages := 3*frames + 2
	for i := range r.devs {
		d := disk.NewSim(diffPageSize, pages)
		d.SetFault(func(_ disk.PageID, write bool) error {
			k := 0
			if write {
				k = 1
			}
			if !r.failIO[k] {
				return nil
			}
			r.failIO[k] = false
			if write {
				return fmt.Errorf("%w: injected write fault", disk.ErrTransient)
			}
			return fmt.Errorf("%w: injected read fault", disk.ErrPermanent)
		})
		r.devs[i] = d
		r.wals[i] = &flakyWAL{}
	}
	r.real = New(r.devs[0], frames)
	r.real.SetWAL(r.wals[0])
	r.model = newScanPool(r.devs[1], frames, r.wals[1])
	return r
}

func (r *diffRig) fatalf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("seed %d, %d frames, step %d: %s", r.seed, len(r.model.frames), r.step, fmt.Sprintf(format, args...))
}

// both runs one operation on the real pool and then on the model, with
// the same faults armed for each, and demands the same outcome.
func (r *diffRig) both(what string, failRead, failWrite, failWAL bool, onReal, onModel func() error) error {
	var errs [2]error
	for i, op := range []func() error{onReal, onModel} {
		r.failIO = [2]bool{failRead, failWrite}
		r.wals[i].failNext = failWAL
		errs[i] = op()
		r.wals[i].failNext = false
	}
	r.failIO = [2]bool{}
	if (errs[0] == nil) != (errs[1] == nil) || errors.Is(errs[0], ErrNoFrames) != errors.Is(errs[1], ErrNoFrames) {
		r.fatalf("%s: real pool says %v, model says %v", what, errs[0], errs[1])
	}
	if errors.Is(errs[0], ErrNoFrames) {
		r.refused++
	}
	return errs[0]
}

// fix runs a Fix, FixAs or FixNew on both sides and returns the pair of
// frames, checking that both sides handed out the same frame.
func (r *diffRig) fix(what string, failRead, failWrite, failWAL bool, onReal func() (*Frame, error), onModel func() (*scanFrame, error)) (heldPair, error) {
	var h heldPair
	r.before = r.before[:0]
	for i := range r.real.frames {
		f := &r.real.frames[i]
		r.before = append(r.before, f.id)
	}
	err := r.both(what, failRead, failWrite, failWAL,
		func() (err error) { h.r, err = onReal(); return },
		func() (err error) { h.m, err = onModel(); return })
	for i := range r.real.frames {
		f := &r.real.frames[i]
		if id := r.before[i]; id != disk.InvalidPage && id != f.id {
			r.evicted = append(r.evicted, id)
		}
	}
	if err == nil && (h.r.index != h.m.index || h.r.id != h.m.id) {
		r.fatalf("%s: real pool handed out frame %d (page %d), model frame %d (page %d)", what, h.r.index, h.r.id, h.m.index, h.m.id)
	}
	return h, err
}

// keep holds the pair pinned for later steps, or scribbles on it and
// releases it now.
func (r *diffRig) keep(h heldPair) {
	if r.rng.Intn(3) == 0 {
		r.held = append(r.held, h)
		return
	}
	r.release(h)
}

func (r *diffRig) release(h heldPair) {
	dirty := r.rng.Intn(3) == 0
	if dirty {
		// Past the header, so that the image's LSN stays zero.
		off, b := page.HeaderSize+r.rng.Intn(diffPageSize-page.HeaderSize), byte(r.rng.Intn(256))
		h.r.data[off], h.m.data[off] = b, b
	}
	failWAL := dirty && r.rng.Intn(20) == 0
	r.both("Unfix", false, false, failWAL,
		func() error { return r.real.Unfix(h.r, dirty) },
		func() error { return r.model.unfix(h.m, dirty) })
}

func (r *diffRig) randomPage() disk.PageID {
	return disk.PageID(r.rng.Intn(r.devs[0].NumPages()))
}

func (r *diffRig) oneStep() {
	roll := r.rng.Intn(100)
	switch {
	case roll < 55:
		id := r.randomPage()
		failRead, failWrite := r.rng.Intn(25) == 0, r.rng.Intn(25) == 0
		onReal := func() (*Frame, error) { return r.real.Fix(id) }
		if roll%2 == 0 {
			onReal = func() (*Frame, error) { return r.real.FixAs(context.Background(), id) }
		}
		if h, err := r.fix("Fix", failRead, failWrite, false, onReal, func() (*scanFrame, error) { return r.model.fix(id) }); err == nil {
			r.keep(h)
		}
	case roll < 62:
		failWrite, failWAL := r.rng.Intn(25) == 0, r.rng.Intn(4) == 0
		if h, err := r.fix("FixNew", false, failWrite, failWAL, r.real.FixNew, r.model.fixNew); err == nil {
			r.keep(h)
		}
	case roll < 77:
		if len(r.held) > 0 {
			i := r.rng.Intn(len(r.held))
			h := r.held[i]
			r.held = append(r.held[:i], r.held[i+1:]...)
			r.release(h)
		}
	case roll < 87:
		id, sticky := r.randomPage(), r.rng.Intn(3) > 0
		r.real.SetSticky(id, sticky)
		r.model.setSticky(id, sticky)
	case roll < 90:
		failWrite := r.rng.Intn(4) == 0
		r.both("EvictAll", false, failWrite, false, r.real.EvictAll, r.model.evictAll)
	case roll < 93:
		failWrite := r.rng.Intn(4) == 0
		r.both("FlushAll", false, failWrite, false, r.real.FlushAll, r.model.flushAll)
	case roll < 96:
		// A page torn on the device (any image that is not all zeros
		// and was never stamped fails its checksum), or healed again.
		id, img := r.randomPage(), make([]byte, diffPageSize)
		if r.rng.Intn(3) > 0 {
			img[page.HeaderSize] = 1
		}
		for _, d := range r.devs {
			if err := d.WritePage(id, img); err != nil {
				r.fatalf("tearing page %d: %v", id, err)
			}
		}
	default:
		// Pin distinct pages until no frame is left, see both sides
		// refuse the next one, and let go of everything.
		for id := disk.PageID(0); int(id) < r.devs[0].NumPages(); id++ {
			h, err := r.fix("Fix in a pin storm", false, false, false,
				func() (*Frame, error) { return r.real.Fix(id) },
				func() (*scanFrame, error) { return r.model.fix(id) })
			if errors.Is(err, ErrNoFrames) {
				break
			}
			if err == nil {
				r.held = append(r.held, h)
			}
			r.compare()
		}
		for _, h := range r.held {
			r.release(h)
		}
		r.held = r.held[:0]
	}
}

// compare demands that the two pools are in the same state: frame for
// frame the same page, pins, flags, stamp and image, the same counters,
// and the same pages replaced so far in the same order.
func (r *diffRig) compare() {
	if err := invariantErr(r.real); err != nil {
		r.fatalf("%v", err)
	}
	for i := range r.real.frames {
		f := &r.real.frames[i]
		m := r.model.frames[i]
		if f.id != m.id || f.pins != m.pins || f.dirty != m.dirty || f.sticky != m.sticky {
			r.fatalf("frame %d: real pool holds page %d (pins %d, dirty %v, sticky %v), model page %d (pins %d, dirty %v, sticky %v)",
				i, f.id, f.pins, f.dirty, f.sticky, m.id, m.pins, m.dirty, m.sticky)
		}
		if f.id == disk.InvalidPage {
			continue
		}
		if f.stamp != m.stamp {
			r.fatalf("frame %d (page %d): stamp %d, model %d", i, f.id, f.stamp, m.stamp)
		}
		if !bytes.Equal(f.data, m.data) {
			r.fatalf("frame %d (page %d): image differs from the model's", i, f.id)
		}
	}
	if got, want := r.real.Stats(), r.model.stats; got != want {
		r.fatalf("stats %+v, model %+v", got, want)
	}
	if !slices.Equal(r.evicted[r.agreed:], r.model.evicted[min(r.agreed, len(r.model.evicted)):]) {
		r.fatalf("replaced pages %v, model %v", r.evicted, r.model.evicted)
	}
	r.agreed = len(r.evicted)
}

// finish releases what is held, closes the real pool and compares the
// two devices page for page.
func (r *diffRig) finish() {
	for _, h := range r.held {
		r.release(h)
	}
	r.held = nil
	r.compare()
	r.both("final flush", false, false, false, r.real.Close, r.model.flushAll)
	var bufs [2][]byte
	for id := disk.PageID(0); int(id) < r.devs[0].NumPages(); id++ {
		for i, d := range r.devs {
			bufs[i] = make([]byte, diffPageSize)
			if err := d.ReadPage(id, bufs[i]); err != nil {
				r.fatalf("reading page %d back: %v", id, err)
			}
		}
		if !bytes.Equal(bufs[0], bufs[1]) {
			r.fatalf("device page %d differs from the model's", id)
		}
	}
	if a, b := r.devs[0].Stats(), r.devs[1].Stats(); a != b {
		r.fatalf("device counters %+v, model's %+v", a, b)
	}
}

// TestVictimHeapMatchesScan: over seeded random sequences of every
// operation that can move a page in or out, with injected read, write,
// checksum and log faults and stretches with every frame pinned, the
// heap hands out the frame the two scans did and replaces the same
// pages in the same order.
func TestVictimHeapMatchesScan(t *testing.T) {
	sequences, steps := 10000, 120
	if testing.Short() || raceEnabled {
		sequences = 400
	}
	sizes := []int{1, 2, 7, 64}
	var evictions, refused int64
	for s := 0; s < sequences; s++ {
		r := newDiffRig(t, int64(s), sizes[s%len(sizes)])
		for r.step = 0; r.step < steps; r.step++ {
			r.oneStep()
			r.compare()
		}
		r.finish()
		evictions += r.model.stats.Evictions
		refused += int64(r.refused)
	}
	t.Logf("%d sequences of %d steps: %d evictions, %d operations refused with every frame pinned", sequences, steps, evictions, refused)
	if evictions < int64(sequences) || refused < int64(sequences) {
		t.Errorf("the sequences do not exercise replacement: %d evictions, %d refusals in %d sequences", evictions, refused, sequences)
	}
}
