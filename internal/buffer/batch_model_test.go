package buffer

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"revelation/internal/disk"
	"revelation/internal/page"
	"revelation/internal/qtrace"
	"revelation/internal/trace"
)

// fixOneByOne is FixBatch as the operator's prefetch was written before
// the pool had a batch entry point: FixAs and Unfix, a page at a time,
// errors dropped. It is kept as the reference model the differential
// test below compares FixBatch with.
func fixOneByOne(p *Pool, runs []Run) {
	for _, run := range runs {
		for _, id := range run.IDs {
			if f, err := p.FixAs(run.Ctx, id); err == nil {
				p.Unfix(f, false)
			}
		}
	}
}

// runSim is a disk.Sim that is also a disk.RunReader: a run is read in
// one call, page by page in its order and each page through the Sim's
// fault hook, so any page of a run can fail on its own.
type runSim struct {
	*disk.Sim
	runs, pages atomic.Int64 // calls made, pages they carried; lanes call at once
}

func (d *runSim) ReadPages(ctx context.Context, ids []disk.PageID, bufs [][]byte, errs []error) {
	d.runs.Add(1)
	d.pages.Add(int64(len(ids)))
	for i, p := range ids {
		errs[i] = d.Sim.ReadPageCtx(ctx, p, bufs[i])
	}
}

// bufferLog keeps a tracer's buffer-layer events.
type bufferLog struct{ evs []trace.Event }

func (l *bufferLog) Emit(e trace.Event) {
	if e.Layer == trace.LayerBuffer {
		l.evs = append(l.evs, e)
	}
}

// batchSide is one of the two pools a batchRig drives, over a device,
// a log, a tracer and a query span of its own.
type batchSide struct {
	pool *Pool
	dev  *disk.Sim
	vec  *runSim // dev as the pool sees it, when the rig reads runs whole
	wal  *flakyWAL
	log  bufferLog
	span *qtrace.Span
	ctx  context.Context // carries span

	// Faults, armed before an operation and spent by the access they
	// hit: the next read of a page, the next write of any.
	readFault   map[disk.PageID]error
	failWrite   bool
	writeFaults int // write faults spent so far
	// lostWrite: a write-back failed during a FixBatch. The fix it
	// belonged to then read nothing, but FixBatch may already have made
	// its read, and the device's read count be ahead of the model's.
	lostWrite bool
}

// batchRig drives a pool through FixBatch (side 1) and a second pool
// through the loop of single fixes (side 0), with the other pool
// operations mixed in on both, and compares them after every step.
type batchRig struct {
	t     *testing.T
	rng   *rand.Rand
	seed  int64
	step  int
	lanes *Lanes
	sides [2]*batchSide
	held  [][2]*Frame
	stats batchStats
}

// batchStats says what a rig's sequence exercised: batches, those of
// several pages, stretches with every frame pinned, transient read
// faults armed on the third or a later page of a run, and the runs that
// reached the device as one call with the pages they carried.
type batchStats struct{ batches, overlapped, refused, lateFaults, runs, runPages int }

// newBatchRig builds the two sides. With vector, the pools see their
// devices as disk.RunReaders.
func newBatchRig(t *testing.T, seed int64, frames int, lanes *Lanes, vector bool) *batchRig {
	r := &batchRig{t: t, seed: seed, rng: rand.New(rand.NewSource(seed)), lanes: lanes}
	for i := range r.sides {
		s := &batchSide{dev: disk.NewSim(diffPageSize, 3*frames+2), wal: &flakyWAL{}, readFault: map[disk.PageID]error{}}
		s.dev.SetFault(func(p disk.PageID, write bool) error {
			if write {
				if !s.failWrite {
					return nil
				}
				s.failWrite = false
				s.writeFaults++
				return fmt.Errorf("%w: injected write fault", disk.ErrTransient)
			}
			err := s.readFault[p]
			delete(s.readFault, p)
			return err
		})
		if vector {
			s.vec = &runSim{Sim: s.dev}
			s.pool = New(s.vec, frames)
		} else {
			s.pool = New(s.dev, frames)
		}
		s.pool.SetWAL(s.wal)
		s.pool.SetTracer(trace.New(&s.log))
		_, s.span = qtrace.NewCollector(1).Begin("batch-model")
		s.ctx = qtrace.With(context.Background(), s.span)
		r.sides[i] = s
	}
	return r
}

func (r *batchRig) fatalf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("seed %d, %d frames, lanes %v, step %d: %s", r.seed, r.sides[0].pool.Size(), r.lanes != nil, r.step, fmt.Sprintf(format, args...))
}

func (r *batchRig) randomPage() disk.PageID {
	return disk.PageID(r.rng.Intn(r.sides[0].dev.NumPages()))
}

// both runs op on each side and demands the same outcome.
func (r *batchRig) both(what string, op func(s *batchSide) error) error {
	var errs [2]error
	for i, s := range r.sides {
		errs[i] = op(s)
	}
	if (errs[0] == nil) != (errs[1] == nil) || errors.Is(errs[0], ErrNoFrames) != errors.Is(errs[1], ErrNoFrames) {
		r.fatalf("%s: the model says %v, the batch side %v", what, errs[0], errs[1])
	}
	return errs[0]
}

// fix pins one page on both sides through fn and keeps or releases it.
func (r *batchRig) fix(what string, fn func(s *batchSide) (*Frame, error)) error {
	var fs [2]*Frame
	i := 0
	err := r.both(what, func(s *batchSide) (err error) {
		fs[i], err = fn(s)
		i++
		return err
	})
	if err == nil {
		if fs[0].index != fs[1].index {
			r.fatalf("%s: frame %d on the model, %d on the batch side", what, fs[0].index, fs[1].index)
		}
		r.held = append(r.held, fs)
		if r.rng.Intn(3) > 0 {
			r.release(len(r.held) - 1)
		}
	}
	return err
}

func (r *batchRig) release(i int) {
	fs := r.held[i]
	r.held = append(r.held[:i], r.held[i+1:]...)
	dirty := r.rng.Intn(3) == 0
	if dirty {
		off, b := page.HeaderSize+r.rng.Intn(diffPageSize-page.HeaderSize), byte(r.rng.Intn(256))
		fs[0].data[off], fs[1].data[off] = b, b
	}
	failWAL := dirty && r.rng.Intn(20) == 0
	k := 0
	r.both("Unfix", func(s *batchSide) error {
		s.wal.failNext = failWAL
		err := s.pool.Unfix(fs[k], dirty)
		s.wal.failNext = false
		k++
		return err
	})
}

// batch runs one random batch of one to three runs of up to four pages:
// FixBatch on side 1, the loop on side 0, the same faults armed for
// both.
func (r *batchRig) batch() {
	var ids []disk.PageID
	lens := make([]int, 1+r.rng.Intn(3))
	for i := range lens {
		lens[i] = 1 + r.rng.Intn(4)
		for k := 0; k < lens[i]; k++ {
			id := r.randomPage()
			if len(ids) > 0 && r.rng.Intn(4) == 0 {
				id = ids[r.rng.Intn(len(ids))] // twice in one batch
			}
			ids = append(ids, id)
		}
	}
	faults := map[disk.PageID]error{}
	at := 0
	for _, n := range lens {
		for k := 0; k < n; k, at = k+1, at+1 {
			switch r.rng.Intn(24) {
			case 0:
				faults[ids[at]] = fmt.Errorf("%w: injected read fault", disk.ErrPermanent)
			case 1:
				faults[ids[at]] = fmt.Errorf("%w: injected read fault", disk.ErrTransient)
				if k >= 2 {
					r.stats.lateFaults++
				}
			}
		}
	}
	// A write-back that fails costs FixBatch a read it had already made
	// (see lostWrite). Were a read fault armed as well, that read would
	// spend it, and the fault would hit different fixes on the two sides.
	failWrite := len(faults) == 0 && r.rng.Intn(15) == 0
	kinds := make([]int, len(lens))
	for i := range kinds {
		kinds[i] = r.rng.Intn(3)
	}
	for i, s := range r.sides {
		runs, rest := make([]Run, len(lens)), ids
		for j, n := range lens {
			runs[j] = Run{Ctx: [3]context.Context{nil, context.Background(), s.ctx}[kinds[j]], IDs: rest[:n]}
			rest = rest[n:]
		}
		for id, err := range faults {
			s.readFault[id] = err
		}
		s.failWrite = failWrite
		if i == 0 {
			fixOneByOne(s.pool, runs)
		} else {
			before := s.writeFaults
			s.pool.FixBatch(runs, r.lanes)
			s.lostWrite = s.lostWrite || s.writeFaults != before
		}
		s.failWrite = false
		clear(s.readFault)
	}
	r.stats.batches++
	if len(ids) > 1 {
		r.stats.overlapped++
	}
}

func (r *batchRig) oneStep() {
	switch roll := r.rng.Intn(100); {
	case roll < 45:
		r.batch()
	case roll < 67:
		id := r.randomPage()
		failRead, failWrite := r.rng.Intn(25) == 0, r.rng.Intn(25) == 0
		r.fix("Fix", func(s *batchSide) (*Frame, error) {
			if failRead {
				s.readFault[id] = fmt.Errorf("%w: injected read fault", disk.ErrPermanent)
			}
			s.failWrite = failWrite
			f, err := s.pool.Fix(id)
			s.failWrite = false
			clear(s.readFault)
			return f, err
		})
	case roll < 80:
		if len(r.held) > 0 {
			r.release(r.rng.Intn(len(r.held)))
		}
	case roll < 89:
		id, sticky := r.randomPage(), r.rng.Intn(3) > 0
		for _, s := range r.sides {
			s.pool.SetSticky(id, sticky)
		}
	case roll < 92:
		r.both("EvictAll", func(s *batchSide) error { return s.pool.EvictAll() })
	case roll < 96:
		// A page torn on the device, or healed again.
		id, img := r.randomPage(), make([]byte, diffPageSize)
		if r.rng.Intn(3) > 0 {
			img[page.HeaderSize] = 1
		}
		for _, s := range r.sides {
			if err := s.dev.WritePage(id, img); err != nil {
				r.fatalf("tearing page %d: %v", id, err)
			}
		}
	default:
		// Pin distinct pages until no frame is left, run batches with
		// every frame pinned — their misses are refused, their hits are
		// not — and let go of everything.
		for id := disk.PageID(0); int(id) < r.sides[0].dev.NumPages(); id++ {
			err := r.fix("Fix in a pin storm", func(s *batchSide) (*Frame, error) { return s.pool.Fix(id) })
			if errors.Is(err, ErrNoFrames) {
				r.stats.refused++
				break
			}
		}
		for i := 0; i < 3; i++ {
			r.batch()
			r.compare()
		}
		for len(r.held) > 0 {
			r.release(len(r.held) - 1)
		}
	}
}

// compare demands that the two sides are in the same state: frame for
// frame the same page, pins, flags, stamp and image; the same counters;
// the same buffer events in the same order; the same hits, misses and
// reads booked on the query span; and a sound victim heap.
func (r *batchRig) compare() {
	m, b := r.sides[0], r.sides[1]
	for _, s := range r.sides {
		if err := invariantErr(s.pool); err != nil {
			r.fatalf("%v", err)
		}
	}
	for i := range b.pool.frames {
		f := &b.pool.frames[i]
		w := &m.pool.frames[i]
		if f.id != w.id || f.pins != w.pins || f.dirty != w.dirty || f.sticky != w.sticky {
			r.fatalf("frame %d: page %d (pins %d, dirty %v, sticky %v), model page %d (pins %d, dirty %v, sticky %v)",
				i, f.id, f.pins, f.dirty, f.sticky, w.id, w.pins, w.dirty, w.sticky)
		}
		if f.id == disk.InvalidPage {
			continue
		}
		if f.stamp != w.stamp {
			r.fatalf("frame %d (page %d): stamp %d, model %d", i, f.id, f.stamp, w.stamp)
		}
		if !bytes.Equal(f.data, w.data) {
			r.fatalf("frame %d (page %d): image differs from the model's", i, f.id)
		}
	}
	if got, want := b.pool.Stats(), m.pool.Stats(); got != want {
		r.fatalf("stats %+v, model %+v", got, want)
	}
	if len(b.log.evs) != len(m.log.evs) {
		r.fatalf("%d buffer events, model %d", len(b.log.evs), len(m.log.evs))
	}
	for i, e := range b.log.evs {
		if e != m.log.evs[i] {
			r.fatalf("buffer event %d of the step: %v, model %v", i, e, m.log.evs[i])
		}
	}
	b.log.evs, m.log.evs = b.log.evs[:0], m.log.evs[:0]
	got, want := b.span.Counters(), m.span.Counters()
	if got.Hits != want.Hits || got.Misses != want.Misses || got.Reads != want.Reads && !b.lostWrite {
		r.fatalf("span counters %+v, model %+v", got, want)
	}
}

// finish releases what is held, closes both pools and compares the two
// devices: page for page, and access for access where the batch side
// made no read the model did not.
func (r *batchRig) finish() {
	for len(r.held) > 0 {
		r.release(len(r.held) - 1)
	}
	r.compare()
	r.both("Close", func(s *batchSide) error { return s.pool.Close() })
	m, b := r.sides[0], r.sides[1]
	var bufs [2][]byte
	for id := disk.PageID(0); int(id) < m.dev.NumPages(); id++ {
		for i, s := range r.sides {
			bufs[i] = make([]byte, diffPageSize)
			if err := s.dev.ReadPage(id, bufs[i]); err != nil {
				r.fatalf("reading page %d back: %v", id, err)
			}
		}
		if !bytes.Equal(bufs[0], bufs[1]) {
			r.fatalf("device page %d differs from the model's", id)
		}
	}
	if b.vec != nil {
		r.stats.runs, r.stats.runPages = int(b.vec.runs.Load()), int(b.vec.pages.Load())
	}
	got, want := b.dev.Stats(), m.dev.Stats()
	if r.lanes != nil || b.lostWrite {
		// The reads of a batch reach the device ahead of its write-backs
		// and, on lanes, in any order: the same accesses, other seeks.
		got.SeekTotal, got.SeekReads, got.MaxSeek = want.SeekTotal, want.SeekReads, want.MaxSeek
	}
	if b.lostWrite {
		if got.Reads < want.Reads {
			r.fatalf("%d device reads, model %d", got.Reads, want.Reads)
		}
		got.Reads = want.Reads
	}
	if got != want {
		r.fatalf("device counters %+v, model's %+v", got, want)
	}
}

// TestFixBatchMatchesFixLoop: over seeded random sequences of batches —
// of several runs of several pages — mixed with every other operation
// that can move a page in or out — pages twice in a batch, resident and
// pinned pages, injected read, checksum, write-back and log faults (the
// third page of a run failing alone, a dirty victim's write-back failing
// after its run was read), batches with every frame pinned — FixBatch
// leaves the pool exactly as the loop of single fixes does: the same
// page in every frame, the same pages replaced in the same order (the
// buffer events say so), the same counters. With lanes and without,
// over a device that reads a run in one call and over one that does not.
func TestFixBatchMatchesFixLoop(t *testing.T) {
	sequences, steps := 10000, 80
	if testing.Short() || raceEnabled {
		sequences = 400
	}
	// Each sequence with lanes starts them on home, so that from the
	// second on they read into the loads and buffers the last one left.
	home := New(disk.NewSim(diffPageSize, 1), 1)
	sizes := []int{1, 2, 7, 64}
	var total batchStats
	var evictions, misses, ioErrors int64
	for s := 0; s < sequences; s++ {
		var ls *Lanes
		if s/len(sizes)%2 == 0 {
			ls = home.StartLanes(2)
		}
		r := newBatchRig(t, int64(s), sizes[s%len(sizes)], ls, s/(2*len(sizes))%2 == 0)
		for r.step = 0; r.step < steps; r.step++ {
			r.oneStep()
			r.compare()
		}
		r.finish()
		ls.Stop()
		st := r.sides[0].pool.Stats()
		evictions, misses = evictions+st.Evictions, misses+st.Faults
		ioErrors += st.TransientErrors + st.PermanentErrors + st.ChecksumFails
		total.batches += r.stats.batches
		total.overlapped += r.stats.overlapped
		total.refused += r.stats.refused
		total.lateFaults += r.stats.lateFaults
		total.runs += r.stats.runs
		total.runPages += r.stats.runPages
	}
	t.Logf("%d sequences of %d steps: %d batches (%d of several pages), %d stretches with every frame pinned, %d misses, %d evictions, %d failed reads, %d transient faults late in a run, %d runs of %d pages read in one call",
		sequences, steps, total.batches, total.overlapped, total.refused, misses, evictions, ioErrors, total.lateFaults, total.runs, total.runPages)
	if total.overlapped < sequences || total.refused < sequences/2 || evictions < int64(sequences) || ioErrors < int64(sequences) ||
		total.lateFaults < sequences/4 || total.runs < sequences || total.runPages < 2*total.runs {
		t.Errorf("the sequences do not exercise the batch path")
	}
}
