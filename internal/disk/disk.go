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
	"os"
	"sync"

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

// Add returns the combined counters of two arms, the aggregate view a
// multi-device extent reports: the counters add, MaxSeek is the larger.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Reads:     s.Reads + o.Reads,
		Writes:    s.Writes + o.Writes,
		SeekTotal: s.SeekTotal + o.SeekTotal,
		SeekReads: s.SeekReads + o.SeekReads,
		MaxSeek:   max(s.MaxSeek, o.MaxSeek),
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
// (pass nil to detach); on any other device it does nothing.
func AttachTracer(dev Device, t *trace.Tracer) {
	if ts, ok := dev.(TracerSetter); ok {
		ts.SetTracer(t)
	}
}

// Sim is the one leaf device: a linear array of pages under one Arm,
// kept in memory (New, NewSim) or in an ordinary file (OpenFile) so that
// a database built by cmd/dbgen survives across processes. The medium
// changes where the bytes live and nothing else — the simulated head is
// what the paper's metric is about, not the host filesystem — so every
// check, the fault hook and the seek accounting are the same code over
// both. It implements Device.
type Sim struct {
	mu       sync.Mutex
	pageSize int
	n        int      // device size in pages
	pages    [][]byte // the memory medium, one view per page; unused over a file
	spare    []byte   // the last allocation's bytes not yet handed to a page
	f        *os.File // the file medium; nil in memory
	arm      Arm
	fault    FaultFunc
	closed   bool
}

// chunkBytes is how much the memory medium allocates at a time when it
// grows by less: a whole number of the runtime's 8 KB pages for any
// power-of-two page size up to it (64 device pages of 1 KB), so a chunk
// is never rounded up. A growth of more pages takes one allocation of
// exactly that many.
const chunkBytes = 64 << 10

// NewSim creates a simulated device with the given page size and an
// initial capacity of n pages (all zeroed).
func NewSim(pageSize, n int) *Sim {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	d := &Sim{pageSize: pageSize, pages: make([][]byte, 0, n)}
	d.spare = make([]byte, n*pageSize) // exactly n: a device made to size may never grow
	d.grow(n)
	return d
}

// grow appends n zeroed pages to the memory medium: views into the
// spare tail of the last allocation first, then into one fresh
// allocation of max(rest, chunk) pages. No byte is handed out twice, so
// a new page reads as zero exactly as a page of its own did.
func (d *Sim) grow(n int) {
	ps := d.pageSize
	for i := 0; i < n; i++ {
		if len(d.spare) < ps {
			d.spare = make([]byte, max(n-i, chunkBytes/ps)*ps)
		}
		d.pages = append(d.pages, d.spare[:ps:ps])
		d.spare = d.spare[ps:]
	}
	d.n += n
}

// New creates a simulated device with the default 1 KB page size.
func New(n int) *Sim { return NewSim(DefaultPageSize, n) }

// OpenFile opens (or creates) a file-backed device. An existing file
// must have a length that is a multiple of pageSize.
func OpenFile(path string, pageSize int) (*Sim, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("disk: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("disk: stat %s: %w", path, err)
	}
	if st.Size()%int64(pageSize) != 0 {
		f.Close()
		return nil, fmt.Errorf("disk: %s length %d is not a multiple of page size %d", path, st.Size(), pageSize)
	}
	return &Sim{f: f, pageSize: pageSize, n: int(st.Size() / int64(pageSize))}, nil
}

// SetFault installs an I/O fault injector; pass nil to clear it.
func (d *Sim) SetFault(f FaultFunc) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fault = f
}

// SetTracer implements TracerSetter: every subsequent physical access
// emits a disk event carrying the head position before the access and
// the seek distance it cost, so a trace replay verifies a file-backed
// run exactly as it does a simulated one. Pass nil to disable tracing.
func (d *Sim) SetTracer(t *trace.Tracer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.arm.SetTracer(t)
}

// RegisterMetrics implements MetricsRegistrar: the registry observes the
// very cells the access path updates, so a live scrape and Stats() can
// never disagree.
func (d *Sim) RegisterMetrics(r *metrics.Registry, dev string) {
	d.arm.Register(r, dev, func() int64 { return int64(d.NumPages()) })
}

// ReadPage implements Device.
func (d *Sim) ReadPage(p PageID, buf []byte) error {
	return d.access(p, buf, true, nil)
}

// ReadPageCtx implements CtxReader: the read is additionally charged
// to the query span in ctx (nil span: identical to ReadPage).
func (d *Sim) ReadPageCtx(ctx context.Context, p PageID, buf []byte) error {
	return d.access(p, buf, true, qtrace.From(ctx))
}

// WritePage implements Device.
func (d *Sim) WritePage(p PageID, buf []byte) error {
	return d.access(p, buf, false, nil)
}

// access is the one body of a physical read or write: the checks, the
// fault hook, the transfer on whichever medium, then the seek. An access
// that fails books nothing.
func (d *Sim) access(p PageID, buf []byte, read bool, sp *qtrace.Span) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if len(buf) != d.pageSize {
		return ErrBadLength
	}
	if int(p) >= d.n {
		return fmt.Errorf("%w: %s page %d of %d", ErrOutOfRange, verb(read), p, d.n)
	}
	if d.fault != nil {
		if err := d.fault(p, !read); err != nil {
			return err
		}
	}
	switch {
	case d.f != nil:
		if err := d.transfer(p, buf, read); err != nil {
			return fmt.Errorf("disk: %s page %d: %w", verb(read), p, err)
		}
	case read:
		copy(buf, d.pages[p])
	default:
		copy(d.pages[p], buf)
	}
	d.arm.Seek(p, read, sp)
	return nil
}

// transfer moves one page between buf and the file.
func (d *Sim) transfer(p PageID, buf []byte, read bool) error {
	off := int64(p) * int64(d.pageSize)
	if read {
		_, err := d.f.ReadAt(buf, off)
		return err
	}
	_, err := d.f.WriteAt(buf, off)
	return err
}

func verb(read bool) string {
	if read {
		return "read"
	}
	return "write"
}

// CheckAllocate is the bound every device's Allocate applies before it
// changes anything, its own size or a member's: no shrinking (n < 0)
// and no growth of a size-page device past the page-id space, where
// the first new page id would wrap.
func CheckAllocate(n, size int) error {
	if n < 0 || n > int(InvalidPage)-size {
		return fmt.Errorf("disk: allocate %d pages on a device of %d", n, size)
	}
	return nil
}

// Allocate implements Device, within CheckAllocate's bounds.
func (d *Sim) Allocate(n int) (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return InvalidPage, ErrClosed
	}
	if err := CheckAllocate(n, d.n); err != nil {
		return InvalidPage, err
	}
	first := PageID(d.n)
	if d.f == nil {
		d.grow(n)
		return first, nil
	}
	if err := d.f.Truncate(int64(d.n+n) * int64(d.pageSize)); err != nil {
		return InvalidPage, fmt.Errorf("disk: allocate %d pages: %w", n, err)
	}
	d.n += n
	return first, nil
}

// NumPages implements Device.
func (d *Sim) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n
}

// PageSize implements Device.
func (d *Sim) PageSize() int { return d.pageSize }

// Head implements Device: a load of the head the last access
// published, with no lock.
func (d *Sim) Head() PageID { return d.arm.Head() }

// Stats implements Device. The counters live in atomic cells, so this
// is safe to call from a scraper while accesses are in flight.
func (d *Sim) Stats() Stats { return d.arm.Stats() }

// ResetStats implements Device.
func (d *Sim) ResetStats() { d.arm.ResetStats() }

// ResetHead implements Device.
func (d *Sim) ResetHead() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.arm.ResetHead()
}

// Close implements Device. Closing twice is harmless.
func (d *Sim) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	if d.f != nil {
		return d.f.Close()
	}
	return nil
}
