// Package disk models the dedicated disk device of the paper's
// evaluation: a linear array of fixed-size pages with a single head.
// Every physical read or write moves the head and accounts the seek
// distance in pages, which is the paper's performance metric
// ("average seek distance, in pages of size 1K bytes").
//
// The device is deliberately simple and deterministic: the query
// processor is assumed to have exclusive control over the request
// queue, exactly as in the paper (Section 6), so scheduling decisions
// made by the assembly operator translate directly into head movement.
package disk

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"revelation/internal/metrics"
	"revelation/internal/qtrace"
	"revelation/internal/trace"
)

// PageID addresses a page on a device. Pages are numbered from zero.
type PageID uint32

// InvalidPage is a sentinel for "no page".
const InvalidPage = PageID(^uint32(0))

// DefaultPageSize is the page size used throughout the paper: 1 KB.
const DefaultPageSize = 1024

// Common errors returned by devices.
var (
	ErrOutOfRange = errors.New("disk: page out of range")
	ErrClosed     = errors.New("disk: device closed")
	ErrBadLength  = errors.New("disk: buffer length does not match page size")
)

// Stats accumulates the device counters the benchmarks report.
type Stats struct {
	Reads     int64 // physical page reads
	Writes    int64 // physical page writes
	SeekTotal int64 // total head movement in pages (reads and writes)
	SeekReads int64 // head movement attributable to reads only
	MaxSeek   int64 // largest single seek observed
}

// AvgSeekPerRead is the paper's metric: total seek distance divided by
// the number of reads. It returns zero when no reads happened.
func (s Stats) AvgSeekPerRead() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.SeekReads) / float64(s.Reads)
}

// Sub returns the counter difference s - prev, for reporting a run's
// activity from two snapshots of a device that is never reset. MaxSeek
// is not a counter and cannot be differenced; the result carries s's
// value, an upper bound for the interval.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Reads:     s.Reads - prev.Reads,
		Writes:    s.Writes - prev.Writes,
		SeekTotal: s.SeekTotal - prev.SeekTotal,
		SeekReads: s.SeekReads - prev.SeekReads,
		MaxSeek:   s.MaxSeek,
	}
}

// Device is a page-addressed block device with seek accounting.
// Implementations must be safe for concurrent use.
type Device interface {
	// ReadPage copies page p into buf, which must be exactly PageSize
	// bytes long.
	ReadPage(p PageID, buf []byte) error
	// WritePage copies buf (exactly PageSize bytes) into page p.
	WritePage(p PageID, buf []byte) error
	// Allocate extends the device by n pages and returns the first new
	// page id.
	Allocate(n int) (PageID, error)
	// NumPages reports the current device size in pages.
	NumPages() int
	// PageSize reports the page size in bytes.
	PageSize() int
	// Head reports the current head position.
	Head() PageID
	// Stats returns a snapshot of the device counters.
	Stats() Stats
	// ResetStats zeroes the counters without moving the head.
	ResetStats()
	// ResetHead parks the head at page 0 without accounting a seek;
	// experiments call it so every run starts from the same position.
	ResetHead()
	// Close releases the device.
	Close() error
}

// FaultFunc lets tests inject I/O errors: it is consulted before every
// physical access with the page id and whether the access is a write.
// Returning a non-nil error aborts the access.
type FaultFunc func(p PageID, write bool) error

// TracerSetter is implemented by devices that accept an event tracer.
// Wrapper devices forward the tracer to the devices they wrap.
type TracerSetter interface {
	SetTracer(t *trace.Tracer)
}

// AttachTracer installs t on dev when the device supports tracing
// (pass nil to detach). It reports whether the device accepted it.
func AttachTracer(dev Device, t *trace.Tracer) bool {
	if ts, ok := dev.(TracerSetter); ok {
		ts.SetTracer(t)
		return true
	}
	return false
}

// Sim is the standard simulated device backed by an in-memory page
// store. It implements Device.
type Sim struct {
	mu       sync.Mutex
	pageSize int
	pages    [][]byte
	head     PageID
	cells    devCells
	fault    FaultFunc
	tr       *trace.Tracer
	closed   bool
}

// NewSim creates a simulated device with the given page size and an
// initial capacity of n pages (all zeroed).
func NewSim(pageSize, n int) *Sim {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	d := &Sim{pageSize: pageSize}
	d.pages = make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		d.pages = append(d.pages, make([]byte, pageSize))
	}
	return d
}

// New creates a simulated device with the default 1 KB page size.
func New(n int) *Sim { return NewSim(DefaultPageSize, n) }

// SetFault installs an I/O fault injector; pass nil to clear it.
func (d *Sim) SetFault(f FaultFunc) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fault = f
}

// SetTracer implements TracerSetter: every subsequent physical access
// emits a disk event carrying the head position before the access and
// the seek distance it cost. Pass nil to disable tracing; the disabled
// hot path pays one branch.
func (d *Sim) SetTracer(t *trace.Tracer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tr = t
}

// seekTo moves the head to p, accounts the distance, and returns it.
// Caller holds mu.
func (d *Sim) seekTo(p PageID, read bool) int64 {
	var dist int64
	if p >= d.head {
		dist = int64(p - d.head)
	} else {
		dist = int64(d.head - p)
	}
	d.cells.account(dist, read)
	d.head = p
	return dist
}

// RegisterMetrics implements MetricsRegistrar: the registry observes the
// very cells the access path updates, so a live scrape and Stats() can
// never disagree.
func (d *Sim) RegisterMetrics(r *metrics.Registry, dev string) {
	d.cells.register(r, dev,
		func() int64 { return int64(d.Head()) },
		func() int64 { return int64(d.NumPages()) })
}

// ReadPage implements Device.
func (d *Sim) ReadPage(p PageID, buf []byte) error {
	return d.readPage(p, buf, nil)
}

// ReadPageCtx implements CtxReader: the read is additionally charged
// to the query span in ctx (nil span: identical to ReadPage).
func (d *Sim) ReadPageCtx(ctx context.Context, p PageID, buf []byte) error {
	return d.readPage(p, buf, spanFrom(ctx))
}

func (d *Sim) readPage(p PageID, buf []byte, sp *qtrace.Span) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if len(buf) != d.pageSize {
		return ErrBadLength
	}
	if int(p) >= len(d.pages) {
		return fmt.Errorf("%w: read page %d of %d", ErrOutOfRange, p, len(d.pages))
	}
	if d.fault != nil {
		if err := d.fault(p, false); err != nil {
			return err
		}
	}
	if d.tr != nil {
		start := time.Now()
		prev := d.head
		dist := d.seekTo(p, true)
		d.cells.reads.Inc()
		sp.OnRead(dist)
		copy(buf, d.pages[p])
		d.tr.Disk(trace.KindRead, int64(p), int64(prev), dist, sp.QID())
		d.tr.Observe("disk/read", time.Since(start))
		return nil
	}
	dist := d.seekTo(p, true)
	d.cells.reads.Inc()
	sp.OnRead(dist)
	copy(buf, d.pages[p])
	return nil
}

// WritePage implements Device.
func (d *Sim) WritePage(p PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if len(buf) != d.pageSize {
		return ErrBadLength
	}
	if int(p) >= len(d.pages) {
		return fmt.Errorf("%w: write page %d of %d", ErrOutOfRange, p, len(d.pages))
	}
	if d.fault != nil {
		if err := d.fault(p, true); err != nil {
			return err
		}
	}
	if d.tr != nil {
		start := time.Now()
		prev := d.head
		dist := d.seekTo(p, false)
		d.cells.writes.Inc()
		copy(d.pages[p], buf)
		d.tr.Disk(trace.KindWrite, int64(p), int64(prev), dist, 0)
		d.tr.Observe("disk/write", time.Since(start))
		return nil
	}
	d.seekTo(p, false)
	d.cells.writes.Inc()
	copy(d.pages[p], buf)
	return nil
}

// Allocate implements Device.
func (d *Sim) Allocate(n int) (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return InvalidPage, ErrClosed
	}
	if n < 0 {
		return InvalidPage, fmt.Errorf("disk: allocate %d pages", n)
	}
	first := PageID(len(d.pages))
	for i := 0; i < n; i++ {
		d.pages = append(d.pages, make([]byte, d.pageSize))
	}
	return first, nil
}

// NumPages implements Device.
func (d *Sim) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pages)
}

// PageSize implements Device.
func (d *Sim) PageSize() int { return d.pageSize }

// Head implements Device.
func (d *Sim) Head() PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.head
}

// Stats implements Device. The counters live in atomic cells, so this
// is safe to call from a scraper while accesses are in flight.
func (d *Sim) Stats() Stats { return d.cells.stats() }

// ResetStats implements Device.
func (d *Sim) ResetStats() { d.cells.reset() }

// ResetHead implements Device.
func (d *Sim) ResetHead() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.head = 0
}

// Close implements Device.
func (d *Sim) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	return nil
}
