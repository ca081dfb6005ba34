package disk

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"revelation/internal/metrics"
	"revelation/internal/qtrace"
	"revelation/internal/trace"
)

// FileDevice is a Device persisted in an ordinary file. It applies the
// same seek accounting as Sim — the simulated head is what the paper's
// metric is about, not the host filesystem — while letting databases
// built by cmd/dbgen survive across processes.
type FileDevice struct {
	mu       sync.Mutex
	f        *os.File
	pageSize int
	numPages int
	head     PageID
	cells    devCells
	tr       *trace.Tracer
	closed   bool
}

// OpenFile opens (or creates) a file-backed device. An existing file
// must have a length that is a multiple of pageSize.
func OpenFile(path string, pageSize int) (*FileDevice, error) {
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
	return &FileDevice{f: f, pageSize: pageSize, numPages: int(st.Size() / int64(pageSize))}, nil
}

func (d *FileDevice) seekTo(p PageID, read bool) int64 {
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

// SetTracer implements TracerSetter: every subsequent access emits a
// disk event with the pre-access head position and seek distance, the
// same contract Sim honours — so trace replays verify file-backed runs
// identically to simulated ones. Pass nil to disable.
func (d *FileDevice) SetTracer(t *trace.Tracer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tr = t
}

// RegisterMetrics implements MetricsRegistrar.
func (d *FileDevice) RegisterMetrics(r *metrics.Registry, dev string) {
	d.cells.register(r, dev,
		func() int64 { return int64(d.Head()) },
		func() int64 { return int64(d.NumPages()) })
}

// ReadPage implements Device.
func (d *FileDevice) ReadPage(p PageID, buf []byte) error {
	return d.readPage(p, buf, nil)
}

// ReadPageCtx implements CtxReader: the read is additionally charged
// to the query span in ctx (nil span: identical to ReadPage).
func (d *FileDevice) ReadPageCtx(ctx context.Context, p PageID, buf []byte) error {
	return d.readPage(p, buf, spanFrom(ctx))
}

func (d *FileDevice) readPage(p PageID, buf []byte, sp *qtrace.Span) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if len(buf) != d.pageSize {
		return ErrBadLength
	}
	if int(p) >= d.numPages {
		return fmt.Errorf("%w: read page %d of %d", ErrOutOfRange, p, d.numPages)
	}
	if _, err := d.f.ReadAt(buf, int64(p)*int64(d.pageSize)); err != nil {
		return fmt.Errorf("disk: read page %d: %w", p, err)
	}
	if d.tr != nil {
		start := time.Now()
		prev := d.head
		dist := d.seekTo(p, true)
		d.cells.reads.Inc()
		sp.OnRead(dist)
		d.tr.Disk(trace.KindRead, int64(p), int64(prev), dist, sp.QID())
		d.tr.Observe("disk/read", time.Since(start))
		return nil
	}
	dist := d.seekTo(p, true)
	d.cells.reads.Inc()
	sp.OnRead(dist)
	return nil
}

// WritePage implements Device.
func (d *FileDevice) WritePage(p PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if len(buf) != d.pageSize {
		return ErrBadLength
	}
	if int(p) >= d.numPages {
		return fmt.Errorf("%w: write page %d of %d", ErrOutOfRange, p, d.numPages)
	}
	if _, err := d.f.WriteAt(buf, int64(p)*int64(d.pageSize)); err != nil {
		return fmt.Errorf("disk: write page %d: %w", p, err)
	}
	if d.tr != nil {
		start := time.Now()
		prev := d.head
		dist := d.seekTo(p, false)
		d.cells.writes.Inc()
		d.tr.Disk(trace.KindWrite, int64(p), int64(prev), dist, 0)
		d.tr.Observe("disk/write", time.Since(start))
		return nil
	}
	d.seekTo(p, false)
	d.cells.writes.Inc()
	return nil
}

// Allocate implements Device.
func (d *FileDevice) Allocate(n int) (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return InvalidPage, ErrClosed
	}
	first := PageID(d.numPages)
	if err := d.f.Truncate(int64(d.numPages+n) * int64(d.pageSize)); err != nil {
		return InvalidPage, fmt.Errorf("disk: allocate %d pages: %w", n, err)
	}
	d.numPages += n
	return first, nil
}

// NumPages implements Device.
func (d *FileDevice) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.numPages
}

// PageSize implements Device.
func (d *FileDevice) PageSize() int { return d.pageSize }

// Head implements Device.
func (d *FileDevice) Head() PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.head
}

// Stats implements Device. The counters live in atomic cells, so this
// is safe to call from a scraper while accesses are in flight.
func (d *FileDevice) Stats() Stats { return d.cells.stats() }

// ResetStats implements Device.
func (d *FileDevice) ResetStats() { d.cells.reset() }

// ResetHead implements Device.
func (d *FileDevice) ResetHead() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.head = 0
}

// Close implements Device.
func (d *FileDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	return d.f.Close()
}
