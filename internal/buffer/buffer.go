// Package buffer implements the Volcano-style buffer manager the
// assembly operator runs against: a fixed pool of page frames with
// pinning, exact LRU replacement, dirty write-back, and hit/fault
// statistics.
//
// The paper leans on two buffer behaviours that this package makes
// explicit. First, partially assembled complex objects keep their pages
// pinned, so the window size bounds the pool footprint (Section 6.3.3's
// "6·(W−1)+7 pages" calculation). Second, sharing statistics let the
// assembly operator hint that a page holding a shared component should
// survive replacement until its expected references are consumed
// (Section 5); hints are advisory priorities consulted by the replacer.
package buffer

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"revelation/internal/disk"
	"revelation/internal/metrics"
	"revelation/internal/page"
	"revelation/internal/qtrace"
	"revelation/internal/trace"
)

// Common errors.
var (
	ErrNoFrames   = errors.New("buffer: all frames pinned")
	ErrNotPinned  = errors.New("buffer: page not pinned")
	ErrPoolClosed = errors.New("buffer: pool closed")
)

// WAL is the write-ahead log contract the pool enforces durability
// against (implemented by internal/wal.Writer; an interface here so the
// dependency points upward). Append logs a page image and returns its
// LSN; SyncTo makes the log durable through at least lsn. With a WAL
// attached, the pool appends every dirtied page image and syncs the log
// before any data-page write — the WAL-before-data rule that makes
// crashes recoverable.
type WAL interface {
	Append(id disk.PageID, img []byte) (uint64, error)
	SyncTo(lsn uint64) error
}

// DeltaWAL is a WAL that can also log bytes [off, off+n) of a page on
// its previous record, stamping the image's LSN (internal/wal.Writer is
// one). UnfixRange uses it; a WAL without it gets full images only.
type DeltaWAL interface {
	WAL
	AppendDelta(id disk.PageID, img []byte, off, n int) (uint64, error)
}

// Stats captures the pool counters used in the evaluation.
type Stats struct {
	Hits          int64 // requests satisfied without device access
	Faults        int64 // requests that required a device read
	Evictions     int64 // frames reused for a different page
	Flushes       int64 // dirty page write-backs
	ChecksumFails int64 // page reads rejected by checksum verification
	PeakPins      int   // high-water mark of simultaneously pinned frames

	// Device-access failures, classified. The pool does not repeat an
	// access: a transient error here means the device (for a page
	// service, after the wire's own retries) gave up while the fault
	// could still clear, e.g. a flapping network connection; a permanent
	// error means the device declared the page unrecoverable. Callers
	// deciding whether to quarantine a page should look at the class,
	// not just the failure.
	TransientErrors int64 // accesses that failed with a retryable error
	PermanentErrors int64 // accesses that failed with a non-retryable error
}

// HitRate returns Hits / (Hits+Faults), or zero before any request.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Faults
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Sub returns the counter difference s - prev, for reporting a run's
// activity from two snapshots of a pool that is never reset. PeakPins
// is a high-water mark, not a counter; the result carries s's value.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Hits:            s.Hits - prev.Hits,
		Faults:          s.Faults - prev.Faults,
		Evictions:       s.Evictions - prev.Evictions,
		Flushes:         s.Flushes - prev.Flushes,
		ChecksumFails:   s.ChecksumFails - prev.ChecksumFails,
		PeakPins:        s.PeakPins,
		TransientErrors: s.TransientErrors - prev.TransientErrors,
		PermanentErrors: s.PermanentErrors - prev.PermanentErrors,
	}
}

// Frame is a buffer slot. Callers receive *Frame from Fix and must
// return it with Unfix. The page image is valid while pinned.
type Frame struct {
	id     disk.PageID
	data   []byte
	pins   int
	dirty  bool
	logged bool // the WAL holds the page's full image since it was last clean
	sticky bool // sharing hint: prefer keeping this page
	place  int8 // where the replacer keeps the frame (see victim.go)
	stamp  int64
	index  int // position in pool.frames
	slot   int // position in pool.parked while parked
}

// Data returns the page image. Only valid while the frame is pinned.
func (f *Frame) Data() []byte { return f.data }

// Pool is the buffer manager.
//
// The order of the fields is measured, not cosmetic. What a hit touches
// — mu, frames, table, tick, tr, closed, freeCh, the counters — comes
// first, in the order it had before the victim heap existed: empty and
// emptyFrom fill the two words the Clock policy left, and the heap
// comes last. With those two words simply gone, and every later field 8
// or 16 bytes lower, the write workload, which only ever hits, ran 3 %
// slower. The page table (table.go) is four words where the map it
// replaced was one, so everything after it now sits 24 bytes further
// on; with dev and empty moved behind the heap to put tick and the rest
// back at their old offsets the write workload read the same (852 k
// against 860 k objects/s over eight alternating runs, quartiles 26 k
// and 41 k apart), so the fields stayed where they were
// (EXPERIMENTS.md). The three-word retry policy that sat after
// emptyFrom is gone, so tr and everything after it sit 24 bytes lower
// than in those measurements. The admission queue (victim.go) sits
// after the heap, among the replacement state only a miss reads, which
// moves deltas and loads 40 bytes on: the write workload read 0.9 %
// fewer objects/s over five pairs, inside the parent's quartiles.
type Pool struct {
	mu    sync.Mutex
	dev   disk.Device
	empty int // frames holding no page (victim.go)

	frames    []Frame
	table     pageTable
	tick      int64
	emptyFrom int // no frame below this index is empty (victim.go)
	tr        *trace.Tracer
	wal       WAL
	closed    bool

	// reserved is the admitted frame-quota total (see admission.go);
	// freeCh carries one-token free-frame wakeups for bounded pin
	// waits.
	reserved int
	freeCh   chan struct{}

	// Counters live in atomic metric cells so Stats() and a registry
	// scrape read them without taking the pool lock. Updates still
	// happen under mu on the fix/unfix paths.
	hits          metrics.Counter
	faults        metrics.Counter
	evictions     metrics.Counter
	flushes       metrics.Counter
	checksumFails metrics.Counter
	transientErrs metrics.Counter
	permanentErrs metrics.Counter
	pinned        metrics.Gauge // frames with at least one pin, live
	peakPins      metrics.Gauge // high-water mark of pinned

	// Admission-layer cells (see admission.go).
	reservations     metrics.Gauge   // reservations currently admitted
	reservedFrames   metrics.Gauge   // frame quota currently reserved
	admissionRejects metrics.Counter // reservations refused (load shed)
	pinWaits         metrics.Counter // bounded waits entered on frame exhaustion
	pinWaitTimeouts  metrics.Counter // pin waits ended by ctx deadline/cancel

	// Replacement state (victim.go): the heap of resident frames
	// placed under an older key, the sticky frames searches took out of
	// the queue or the heap, and the admission queue. Only a miss reads
	// it.
	lru    []lruEntry
	parked []*Frame
	queue  admitQueue

	deltas DeltaWAL // wal, if it logs deltas; read by logged writes only

	loads []runLoad // what the last stopped Lanes read into (batch.go)
}

// New creates a pool of n frames over dev. Replacement is exact LRU.
func New(dev disk.Device, n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{
		dev:    dev,
		frames: make([]Frame, n),
		table:  newPageTable(n),
		lru:    make([]lruEntry, 0, n),
		queue:  admitQueue{ring: make([]lruEntry, n)},
		empty:  n,
		freeCh: make(chan struct{}, 1),
	}
	for i := range p.frames {
		p.frames[i] = Frame{id: disk.InvalidPage, data: make([]byte, dev.PageSize()), index: i}
	}
	return p
}

// Size returns the number of frames in the pool.
func (p *Pool) Size() int { return len(p.frames) }

// Device returns the underlying device.
func (p *Pool) Device() disk.Device { return p.dev }

// Stats returns a snapshot of the counters. It does not take the pool
// lock — the counters are atomic cells — so it is safe to call from a
// metrics scraper while fixes are in flight.
func (p *Pool) Stats() Stats {
	return Stats{
		Hits:            p.hits.Value(),
		Faults:          p.faults.Value(),
		Evictions:       p.evictions.Value(),
		Flushes:         p.flushes.Value(),
		ChecksumFails:   p.checksumFails.Value(),
		PeakPins:        int(p.peakPins.Value()),
		TransientErrors: p.transientErrs.Value(),
		PermanentErrors: p.permanentErrs.Value(),
	}
}

// ResetStats zeroes the counters.
func (p *Pool) ResetStats() {
	p.hits.Reset()
	p.faults.Reset()
	p.evictions.Reset()
	p.flushes.Reset()
	p.checksumFails.Reset()
	p.transientErrs.Reset()
	p.permanentErrs.Reset()
	p.peakPins.Reset()
}

// RegisterMetrics attaches the pool's counters to r under the
// asm_buffer_* families, labeled with the pool name. The registry
// observes the same cells the fix path updates.
func (p *Pool) RegisterMetrics(r *metrics.Registry, pool string) {
	r.Attach("asm_buffer_hits_total", "Requests satisfied without device access.", &p.hits, "pool", pool)
	r.Attach("asm_buffer_misses_total", "Requests that required a device read.", &p.faults, "pool", pool)
	r.Attach("asm_buffer_evictions_total", "Frames reused for a different page.", &p.evictions, "pool", pool)
	r.Attach("asm_buffer_flushes_total", "Dirty page write-backs.", &p.flushes, "pool", pool)
	r.Attach("asm_checksum_failures_total", "Page reads rejected by checksum verification.", &p.checksumFails, "pool", pool)
	r.Attach("asm_buffer_io_errors_total", "Terminal device-access failures by class.", &p.transientErrs, "pool", pool, "class", "transient")
	r.Attach("asm_buffer_io_errors_total", "Terminal device-access failures by class.", &p.permanentErrs, "pool", pool, "class", "permanent")
	r.Attach("asm_buffer_pinned_frames", "Frames with at least one pin, live.", &p.pinned, "pool", pool)
	r.Attach("asm_buffer_peak_pinned_frames", "High-water mark of pinned frames.", &p.peakPins, "pool", pool)
	r.Attach("asm_buffer_frames", "Total frames in the pool.",
		metrics.GaugeFunc(func() int64 { return int64(p.Size()) }), "pool", pool)
	r.Attach("asm_buffer_reservations", "Query frame reservations currently admitted.", &p.reservations, "pool", pool)
	r.Attach("asm_buffer_reserved_frames", "Frame quota currently reserved by admitted queries.", &p.reservedFrames, "pool", pool)
	r.Attach("asm_buffer_admission_rejects_total", "Frame reservations refused because the pool was oversubscribed.", &p.admissionRejects, "pool", pool)
	r.Attach("asm_buffer_pin_waits_total", "Bounded waits entered because every frame was pinned.", &p.pinWaits, "pool", pool)
	r.Attach("asm_buffer_pin_wait_timeouts_total", "Pin waits ended by context cancellation or deadline.", &p.pinWaitTimeouts, "pool", pool)
}

// SetTracer installs an event tracer on the pool: every hit, miss
// (device read), eviction, flush, and unfix emits a buffer event. Pass
// nil to disable tracing; the disabled hot path pays one branch.
func (p *Pool) SetTracer(t *trace.Tracer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tr = t
}

// Tracer returns the tracer SetTracer installed, nil when none is. An
// assembly operator takes it at Open, so it traces into the stream its
// pool does.
func (p *Pool) Tracer() *trace.Tracer {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tr
}

// SetWAL attaches a write-ahead log to the pool. From then on every
// page image dirtied through Unfix is appended to the log, and no
// data-page write leaves the pool before the log is durable through
// that page's LSN. Pass nil to detach. Each page's next logged write is
// a full image: the new log holds none yet.
func (p *Pool) SetWAL(w WAL) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wal = w
	p.deltas, _ = w.(DeltaWAL)
	for i := range p.frames {
		p.frames[i].logged = false
	}
}

// writeLocked writes a page and classifies a failure. Caller holds mu.
func (p *Pool) writeLocked(id disk.PageID, buf []byte) error {
	err := p.dev.WritePage(id, buf)
	p.classifyErr(err)
	return err
}

// classifyErr counts a device-access failure by class. A
// disk.Retryable error is transient — the page is fine, the path to it
// was flapping — while anything else is treated as permanent damage.
// The pool repeats nothing: transient faults are absorbed on the wire
// (pagesvc.Client, shard.Router) or by the operator (RetryFaults).
func (p *Pool) classifyErr(err error) {
	if err == nil {
		return
	}
	if disk.Retryable(err) {
		p.transientErrs.Inc()
	} else {
		p.permanentErrs.Inc()
	}
}

// PinnedFrames counts currently pinned frames. The count is maintained
// as a live gauge on pin transitions, so no lock or scan is needed.
func (p *Pool) PinnedFrames() int { return int(p.pinned.Value()) }

// Fix pins page id into a frame, reading it from the device on a miss,
// and returns the frame. Every successful Fix must be paired with an
// Unfix.
func (p *Pool) Fix(id disk.PageID) (*Frame, error) {
	return p.FixAs(nil, id)
}

// FixAs is Fix with per-query attribution: the hit or miss (and the
// device read behind a miss) is charged to the query span carried in
// ctx, and the buffer trace events are stamped with its query ID.
// Like Fix it never waits — frame exhaustion returns ErrNoFrames
// immediately, and the caller sheds its own pins and calls WaitFrame
// before retrying. A nil ctx behaves exactly like Fix.
func (p *Pool) FixAs(ctx context.Context, id disk.PageID) (*Frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fixLocked(ctx, id, nil)
}

// fixLocked is FixAs for a caller that holds mu. ld, when not nil, is the
// read of page id that FixBatch already made, and a miss takes the image
// out of it; otherwise a miss reads the page into the victim frame.
func (p *Pool) fixLocked(ctx context.Context, id disk.PageID, ld *load) (*Frame, error) {
	if p.closed {
		return nil, ErrPoolClosed
	}
	sp := qtrace.From(ctx)
	p.tick++
	if f := p.resident(id); f != nil {
		f.pins++
		if f.pins == 1 {
			p.pinned.Add(1)
		}
		f.stamp = p.tick
		p.hits.Inc()
		sp.OnHit()
		p.notePins()
		if p.tr != nil {
			p.tr.Buffer(trace.KindHit, int64(id), 0, sp.QID())
		}
		return f, nil
	}
	f, err := p.victimLocked()
	if err != nil {
		return nil, err
	}
	if ld == nil {
		ld = &load{id: id, buf: f.data}
		ld.settle(disk.ReadPageCtx(ctx, p.dev, id, f.data))
	} else {
		// The frame's old buffer becomes the lane's next one.
		f.data, ld.buf = ld.buf, f.data
	}
	p.classifyErr(ld.err)
	if ld.err != nil {
		// Leave the frame free for the next caller.
		p.emptyLocked(f)
		return nil, ld.err
	}
	if ld.sum != nil {
		// A torn or corrupt image must never be interpreted: reject the
		// read and leave the frame free. Recovery (internal/wal) is the
		// only path that may overwrite such a page.
		p.emptyLocked(f)
		p.checksumFails.Inc()
		if p.tr != nil {
			p.tr.ChecksumFail(int64(id))
		}
		return nil, fmt.Errorf("buffer: fix page %d: %w", id, ld.sum)
	}
	p.admitLocked(f, id)
	p.faults.Inc()
	sp.OnMiss()
	if p.tr != nil {
		p.tr.Buffer(trace.KindMiss, int64(id), 0, sp.QID())
	}
	return f, nil
}

// load is one page read made for a fix: where it goes and how it ended.
type load struct {
	run, at int // position in a FixBatch: which run, which of its pages
	id      disk.PageID
	buf     []byte

	err error // the device's answer
	sum error // page.Verify's, when the device delivered
}

// settle records how the read ended and verifies a page that arrived.
func (ld *load) settle(err error) {
	ld.err, ld.sum = err, nil
	if err == nil {
		ld.sum = page.Verify(ld.buf)
	}
}

// admitLocked makes the frame victimLocked handed out hold page id,
// pinned once by the caller, most recently used.
func (p *Pool) admitLocked(f *Frame, id disk.PageID) {
	f.id = id
	f.pins = 1
	f.dirty = false
	f.logged = false
	f.stamp = p.tick
	p.table.put(id, f.index)
	p.queue.push(f)
	p.pinned.Add(1)
	p.notePins()
}

func (p *Pool) notePins() {
	p.peakPins.SetMax(p.pinned.Value())
}

// Unfix releases one pin on the frame; setDirty marks the page as
// modified so it is written back before reuse.
func (p *Pool) Unfix(f *Frame, setDirty bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.unfixLocked(f, setDirty, 0, 0)
}

// UnfixRange is Unfix(f, true) for a caller that changed only bytes
// [off, off+n), past the page header. It logs just those bytes when the
// WAL is a DeltaWAL that holds the page's image since it was last clean.
func (p *Pool) UnfixRange(f *Frame, off, n int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.unfixLocked(f, true, off, n)
}

// unfixLocked is Unfix, and UnfixRange when n > 0, for a caller that
// holds mu.
func (p *Pool) unfixLocked(f *Frame, setDirty bool, off, n int) error {
	if f.pins <= 0 {
		return fmt.Errorf("%w: page %d", ErrNotPinned, f.id)
	}
	f.pins--
	if f.pins == 0 {
		p.pinned.Add(-1)
		if f.place == placeNone {
			// A victim search met the frame pinned and dropped it.
			p.pushLRU(f)
		}
		// A frame became evictable: wake one bounded pin waiter.
		p.notifyFree()
	}
	if setDirty {
		f.dirty = true
		if p.wal != nil {
			// Log the modified page before anyone can flush it. Append
			// stamps the image's LSN and checksum in place, so the
			// frame and the log hold byte-identical images; a delta
			// stamps the LSN, and the flush the checksum.
			var err error
			if n > 0 && f.logged && p.deltas != nil {
				_, err = p.deltas.AppendDelta(f.id, f.data, off, n)
			} else {
				_, err = p.wal.Append(f.id, f.data)
				f.logged = err == nil
			}
			if err != nil {
				return fmt.Errorf("buffer: wal append page %d: %w", f.id, err)
			}
		}
	}
	if p.tr != nil {
		dirty := int64(0)
		if setDirty {
			dirty = 1
		}
		p.tr.Buffer(trace.KindUnfix, int64(f.id), dirty, 0)
	}
	return nil
}

// SetSticky marks or clears the sharing hint on a resident page: a
// sticky page is passed over by the replacer while any non-sticky
// candidate exists. Missing pages are ignored (the hint is advisory).
func (p *Pool) SetSticky(id disk.PageID, sticky bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f := p.resident(id); f != nil {
		f.sticky = sticky
		if !sticky && f.place == placeParked {
			p.unpark(f)
			if f.pins == 0 {
				p.pushLRU(f)
			}
		}
	}
}

// FlushAll writes every dirty resident page back to the device.
// Pinned pages are flushed too (their pins remain).
func (p *Pool) FlushAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flushLocked()
}

func (p *Pool) flushLocked() error {
	for i := range p.frames {
		f := &p.frames[i]
		if f.id == disk.InvalidPage || !f.dirty {
			continue
		}
		if err := p.flushFrameLocked(f); err != nil {
			return err
		}
	}
	return nil
}

// flushFrameLocked writes one dirty frame back, enforcing the
// WAL-before-data rule (the log must be durable through the page's LSN
// before the page itself may reach the device) and stamping the image's
// checksum on its way out. Caller holds mu; f is dirty.
func (p *Pool) flushFrameLocked(f *Frame) error {
	if p.wal != nil {
		if lsn := page.Wrap(f.data).LSN(); lsn > 0 {
			if err := p.wal.SyncTo(lsn); err != nil {
				return fmt.Errorf("buffer: wal sync before flush of page %d: %w", f.id, err)
			}
		}
	}
	page.Stamp(f.data)
	if err := p.writeLocked(f.id, f.data); err != nil {
		return err
	}
	// Clean: a log cut here needs no record before it for this page.
	f.dirty, f.logged = false, false
	p.flushes.Inc()
	if p.tr != nil {
		p.tr.Buffer(trace.KindFlush, int64(f.id), 0, 0)
	}
	return nil
}

// EvictAll flushes every dirty page and empties the pool, so the next
// accesses start cold. Experiments call it after database generation:
// the paper measures disk behaviour, which a warm pool would hide. It
// fails if any frame is pinned.
func (p *Pool) EvictAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.frames {
		f := &p.frames[i]
		if f.pins > 0 {
			return fmt.Errorf("buffer: evict-all with page %d pinned", f.id)
		}
	}
	if err := p.flushLocked(); err != nil {
		return err
	}
	for i := range p.frames {
		f := &p.frames[i]
		if f.id != disk.InvalidPage {
			f.place = placeNone
			p.emptyLocked(f)
		}
	}
	p.lru, p.parked = p.lru[:0], p.parked[:0]
	p.queue.head, p.queue.n = 0, 0
	p.notifyFree()
	return nil
}

// Close flushes dirty pages and marks the pool unusable. It fails if
// any frame is still pinned, which indicates a fix/unfix imbalance.
// The pool is marked closed only after a successful flush: a Close
// that fails to write dirty pages back leaves the pool open, so the
// caller can retry (or FlushAll after clearing the fault) instead of
// silently losing the unflushed data to a second Close's "already
// closed" success path.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	for i := range p.frames {
		f := &p.frames[i]
		if f.pins > 0 {
			return fmt.Errorf("buffer: close with page %d still pinned", f.id)
		}
	}
	if p.reserved > 0 {
		// A live reservation means some query never released its quota
		// — the same class of bookkeeping bug as a leaked pin.
		return fmt.Errorf("buffer: close with %d frames still reserved", p.reserved)
	}
	if err := p.flushLocked(); err != nil {
		return err
	}
	p.closed = true
	return nil
}
