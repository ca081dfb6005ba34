package disk

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"revelation/internal/difftest"
	"revelation/internal/metrics"
	"revelation/internal/qtrace"
	"revelation/internal/trace"
)

// The three bookkeepers the Arm replaced, kept as the reference model:
// the bodies below are the pre-merge Sim (seekTo and its traced and
// untraced read and write twins), FileDevice (the same four bodies over
// a file) and pagesvc.Client.account (a plain Stats under a mutex),
// verbatim but for the type names and the Tracer.Observe calls, whose
// API is gone. TestArmMatchesOldBookkeepers runs each against the
// merged device step by step.

type modelCells struct {
	reads     metrics.Counter
	writes    metrics.Counter
	seekTotal metrics.Counter
	seekReads metrics.Counter
	maxSeek   metrics.Gauge
}

func (c *modelCells) account(dist int64, read bool) {
	c.seekTotal.Add(dist)
	if read {
		c.seekReads.Add(dist)
	}
	c.maxSeek.SetMax(dist)
}

func (c *modelCells) stats() Stats {
	return Stats{
		Reads:     c.reads.Value(),
		Writes:    c.writes.Value(),
		SeekTotal: c.seekTotal.Value(),
		SeekReads: c.seekReads.Value(),
		MaxSeek:   c.maxSeek.Value(),
	}
}

func (c *modelCells) reset() {
	c.reads.Reset()
	c.writes.Reset()
	c.seekTotal.Reset()
	c.seekReads.Reset()
	c.maxSeek.Reset()
}

// modelSim is the pre-merge in-memory Sim.
type modelSim struct {
	mu       sync.Mutex
	pageSize int
	pages    [][]byte
	head     PageID
	cells    modelCells
	fault    FaultFunc
	tr       *trace.Tracer
	closed   bool
}

func newModelSim(pageSize, n int) *modelSim {
	d := &modelSim{pageSize: pageSize}
	for i := 0; i < n; i++ {
		d.pages = append(d.pages, make([]byte, pageSize))
	}
	return d
}

// Allocate is the per-page growth the chunked medium replaced: a zeroed
// slice of its own for every new page.
func (d *modelSim) Allocate(n int) (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return InvalidPage, ErrClosed
	}
	first := PageID(len(d.pages))
	for i := 0; i < n; i++ {
		d.pages = append(d.pages, make([]byte, d.pageSize))
	}
	return first, nil
}

func (d *modelSim) seekTo(p PageID, read bool) int64 {
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

func (d *modelSim) readPage(p PageID, buf []byte, sp *qtrace.Span) error {
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
		prev := d.head
		dist := d.seekTo(p, true)
		d.cells.reads.Inc()
		sp.OnRead(dist)
		copy(buf, d.pages[p])
		d.tr.Disk(trace.KindRead, int64(p), int64(prev), dist, sp.QID())
		return nil
	}
	dist := d.seekTo(p, true)
	d.cells.reads.Inc()
	sp.OnRead(dist)
	copy(buf, d.pages[p])
	return nil
}

func (d *modelSim) WritePage(p PageID, buf []byte) error {
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
		prev := d.head
		dist := d.seekTo(p, false)
		d.cells.writes.Inc()
		copy(d.pages[p], buf)
		d.tr.Disk(trace.KindWrite, int64(p), int64(prev), dist, 0)
		return nil
	}
	d.seekTo(p, false)
	d.cells.writes.Inc()
	copy(d.pages[p], buf)
	return nil
}

func (d *modelSim) SetTracer(t *trace.Tracer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tr = t
}

func (d *modelSim) Head() PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.head
}

func (d *modelSim) Stats() Stats { return d.cells.stats() }
func (d *modelSim) ResetStats()  { d.cells.reset() }

func (d *modelSim) ResetHead() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.head = 0
}

// modelFile is the pre-merge FileDevice.
type modelFile struct {
	mu       sync.Mutex
	f        *os.File
	pageSize int
	numPages int
	head     PageID
	cells    modelCells
	tr       *trace.Tracer
	closed   bool
}

func (d *modelFile) Allocate(n int) (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	first := PageID(d.numPages)
	if err := d.f.Truncate(int64(d.numPages+n) * int64(d.pageSize)); err != nil {
		return InvalidPage, err
	}
	d.numPages += n
	return first, nil
}

func (d *modelFile) seekTo(p PageID, read bool) int64 {
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

func (d *modelFile) readPage(p PageID, buf []byte, sp *qtrace.Span) error {
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
		prev := d.head
		dist := d.seekTo(p, true)
		d.cells.reads.Inc()
		sp.OnRead(dist)
		d.tr.Disk(trace.KindRead, int64(p), int64(prev), dist, sp.QID())
		return nil
	}
	dist := d.seekTo(p, true)
	d.cells.reads.Inc()
	sp.OnRead(dist)
	return nil
}

func (d *modelFile) WritePage(p PageID, buf []byte) error {
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
		prev := d.head
		dist := d.seekTo(p, false)
		d.cells.writes.Inc()
		d.tr.Disk(trace.KindWrite, int64(p), int64(prev), dist, 0)
		return nil
	}
	d.seekTo(p, false)
	d.cells.writes.Inc()
	return nil
}

func (d *modelFile) SetTracer(t *trace.Tracer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tr = t
}

func (d *modelFile) Head() PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.head
}

func (d *modelFile) Stats() Stats { return d.cells.stats() }
func (d *modelFile) ResetStats()  { d.cells.reset() }

func (d *modelFile) ResetHead() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.head = 0
}

// modelClient is the head bookkeeping of the pre-merge pagesvc.Client:
// account, and the accessors over the fields it wrote.
type modelClient struct {
	mu     sync.Mutex
	head   PageID
	stats  Stats
	diskTr *trace.Tracer
}

func (c *modelClient) account(p PageID, read bool, sp *qtrace.Span) {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := c.head
	dist := int64(p) - int64(prev)
	if dist < 0 {
		dist = -dist
	}
	c.head = p
	if read {
		c.stats.Reads++
		c.stats.SeekReads += dist
		sp.OnRead(dist)
	} else {
		c.stats.Writes++
	}
	c.stats.SeekTotal += dist
	if dist > c.stats.MaxSeek {
		c.stats.MaxSeek = dist
	}
	if c.diskTr != nil {
		kind := trace.KindWrite
		if read {
			kind = trace.KindRead
		}
		c.diskTr.Disk(kind, int64(p), int64(prev), dist, sp.QID())
	}
}

func (c *modelClient) SetTracer(t *trace.Tracer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.diskTr = t
}

func (c *modelClient) Head() PageID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.head
}

func (c *modelClient) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *modelClient) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = Stats{}
}

func (c *modelClient) ResetHead() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.head = 0
}

// header is what the differential test drives on both sides: the
// accesses, and everything the head model lets a caller observe.
type header interface {
	read(p PageID, buf []byte, sp *qtrace.Span) error
	write(p PageID, buf []byte) error
	Allocate(n int) (PageID, error)
	SetTracer(t *trace.Tracer)
	Head() PageID
	Stats() Stats
	ResetStats()
	ResetHead()
}

type simHeader struct{ *Sim }

func (d simHeader) read(p PageID, buf []byte, sp *qtrace.Span) error {
	if sp == nil {
		return d.ReadPage(p, buf)
	}
	return d.ReadPageCtx(qtrace.With(context.Background(), sp), p, buf)
}
func (d simHeader) write(p PageID, buf []byte) error { return d.WritePage(p, buf) }

type modelSimHeader struct{ *modelSim }

func (d modelSimHeader) read(p PageID, buf []byte, sp *qtrace.Span) error {
	return d.readPage(p, buf, sp)
}
func (d modelSimHeader) write(p PageID, buf []byte) error { return d.WritePage(p, buf) }

type modelFileHeader struct{ *modelFile }

func (d modelFileHeader) read(p PageID, buf []byte, sp *qtrace.Span) error {
	return d.readPage(p, buf, sp)
}
func (d modelFileHeader) write(p PageID, buf []byte) error { return d.WritePage(p, buf) }

// armHeader drives a bare Arm the way pagesvc.Client does: every call
// that touches the head or the tracer under the owner's mutex, no
// range or length checks of its own (the client makes those before it
// seeks).
type armHeader struct {
	mu  sync.Mutex
	arm Arm
}

func (c *armHeader) seek(p PageID, read bool, sp *qtrace.Span) {
	c.mu.Lock()
	c.arm.Seek(p, read, sp)
	c.mu.Unlock()
}
func (c *armHeader) read(p PageID, _ []byte, sp *qtrace.Span) error {
	c.seek(p, true, sp)
	return nil
}
func (c *armHeader) write(p PageID, _ []byte) error { c.seek(p, false, nil); return nil }

// Allocate: the client's size is the server's business, not the arm's.
func (c *armHeader) Allocate(int) (PageID, error) { return 0, nil }
func (c *armHeader) SetTracer(t *trace.Tracer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.arm.SetTracer(t)
}
func (c *armHeader) Head() PageID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.arm.Head()
}
func (c *armHeader) Stats() Stats { return c.arm.Stats() }
func (c *armHeader) ResetStats()  { c.arm.ResetStats() }
func (c *armHeader) ResetHead() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.arm.ResetHead()
}

type modelClientHeader struct{ *modelClient }

func (c modelClientHeader) read(p PageID, _ []byte, sp *qtrace.Span) error {
	c.account(p, true, sp)
	return nil
}
func (c modelClientHeader) write(p PageID, _ []byte) error {
	c.account(p, false, nil)
	return nil
}
func (c modelClientHeader) Allocate(int) (PageID, error) { return 0, nil }

// side is one half of a differential pair with its own tracer and its
// own query span, so sequence numbers and query ids line up.
type side struct {
	dev header
	tr  *trace.Tracer
	col *trace.Collector
	sp  *qtrace.Span
}

func newSide(dev header) *side {
	col := trace.NewCollector()
	_, sp := qtrace.NewCollector(1).Begin("q")
	return &side{dev: dev, tr: trace.New(col), col: col, sp: sp}
}

const (
	modelPages    = 48
	modelPageSize = 64
)

// allocSteps are the growths runSequence asks for: nothing, a page, and
// either side of the memory medium's 64 KB chunk (1 024 pages here).
var allocSteps = []int{0, 1, 63, 64, 65, 200, 1023, 1024, 1025}

// runSequence drives one seeded sequence of reads (with and without a
// span, a few out of range), writes, growths, ResetHead, ResetStats and
// tracer on/off against both sides, comparing after every step. Reads
// and writes range over the device as it stands, so a page past the old
// end is read (zero) and written once it is allocated.
func runSequence(seq *difftest.Seq, got, want *side) {
	rng := rand.New(rand.NewSource(seq.Seed))
	gbuf, wbuf := make([]byte, modelPageSize), make([]byte, modelPageSize)
	steps, seen, size := 8+rng.Intn(40), 0, modelPages
	for seq.Step = 0; seq.Step < steps; seq.Step++ {
		var gerr, werr error
		op := "?"
		switch k := rng.Intn(22); {
		case k < 10: // read; one in four carries the query span
			p := PageID(rng.Intn(size + 2)) // the last two are out of range
			gsp, wsp := got.sp, want.sp
			if rng.Intn(4) != 0 {
				gsp, wsp = nil, nil
			}
			op = fmt.Sprintf("read %d (span %v)", p, gsp != nil)
			gerr, werr = got.dev.read(p, gbuf, gsp), want.dev.read(p, wbuf, wsp)
			if string(gbuf) != string(wbuf) {
				seq.Fatalf("%s: page bytes differ", op)
			}
		case k < 15:
			p := PageID(rng.Intn(size + 2))
			op = fmt.Sprintf("write %d", p)
			rng.Read(gbuf)
			copy(wbuf, gbuf)
			gerr, werr = got.dev.write(p, gbuf), want.dev.write(p, wbuf)
		case k < 16:
			op = "ResetHead"
			got.dev.ResetHead()
			want.dev.ResetHead()
		case k < 17:
			op = "ResetStats"
			got.dev.ResetStats()
			want.dev.ResetStats()
		case k < 19:
			op = "tracer on"
			got.dev.SetTracer(got.tr)
			want.dev.SetTracer(want.tr)
		case k < 20:
			op = "tracer off"
			got.dev.SetTracer(nil)
			want.dev.SetTracer(nil)
		default:
			n := allocSteps[rng.Intn(len(allocSteps))]
			op = fmt.Sprintf("Allocate(%d)", n)
			var gfirst, wfirst PageID
			gfirst, gerr = got.dev.Allocate(n)
			wfirst, werr = want.dev.Allocate(n)
			if gfirst != wfirst {
				seq.Fatalf("%s: first page %d, model %d", op, gfirst, wfirst)
			}
			if gerr == nil {
				size += n
			}
		}
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			seq.Fatalf("%s: error %v, model %v", op, gerr, werr)
		}
		if g, w := got.dev.Stats(), want.dev.Stats(); g != w {
			seq.Fatalf("%s: Stats %+v, model %+v", op, g, w)
		}
		if g, w := got.dev.Head(), want.dev.Head(); g != w {
			seq.Fatalf("%s: Head %d, model %d", op, g, w)
		}
		if g, w := got.sp.Counters(), want.sp.Counters(); g != w {
			seq.Fatalf("%s: span %+v, model %+v", op, g, w)
		}
		// Earlier steps compared the events before seen.
		if g, w := got.col.Events(), want.col.Events(); len(g) != len(w) || !reflect.DeepEqual(g[seen:], w[seen:]) {
			seq.Fatalf("%s: %d events, model %d; last %v vs %v", op, len(g), len(w), lastEvent(g), lastEvent(w))
		} else {
			seen = len(g)
		}
	}
}

func lastEvent(evs []trace.Event) any {
	if len(evs) == 0 {
		return "none"
	}
	return evs[len(evs)-1]
}

// TestArmMatchesOldBookkeepers is the differential test of the merge:
// the one device over each medium against the copy it replaced, and a
// bare Arm against the client's bookkeeping, must agree step by step on
// Stats, Head, the span's counters and the emitted events, errors
// included.
func TestArmMatchesOldBookkeepers(t *testing.T) {
	sequences := difftest.Count(10000, 400)
	dir := t.TempDir()
	openBoth := func(t *testing.T) (*Sim, *modelFile) {
		// Two files: each side owns its bytes. They are created once and
		// reopened per sequence, cut back to modelPages, so a sequence
		// starts from a parked head and zero counters over whatever the
		// last one wrote there — on both sides the same bytes.
		f, err := os.OpenFile(filepath.Join(dir, "model.db"), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Truncate(modelPages * modelPageSize); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(filepath.Join(dir, "change.db"), modelPages*modelPageSize); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		d, err := OpenFile(filepath.Join(dir, "change.db"), modelPageSize)
		if err != nil {
			t.Fatal(err)
		}
		if d.NumPages() == 0 {
			if _, err := d.Allocate(modelPages); err != nil {
				t.Fatal(err)
			}
		}
		return d, &modelFile{f: f, pageSize: modelPageSize, numPages: modelPages}
	}
	t.Run("memory", func(t *testing.T) {
		t.Parallel()
		difftest.Walk(t, 0, sequences, func(s *difftest.Seq) {
			runSequence(s,
				newSide(simHeader{NewSim(modelPageSize, modelPages)}),
				newSide(modelSimHeader{newModelSim(modelPageSize, modelPages)}))
		})
	})
	t.Run("file", func(t *testing.T) {
		t.Parallel()
		difftest.Walk(t, 0, sequences, func(s *difftest.Seq) {
			d, m := openBoth(t)
			runSequence(s, newSide(simHeader{d}), newSide(modelFileHeader{m}))
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			if err := m.f.Close(); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("client", func(t *testing.T) {
		t.Parallel()
		difftest.Walk(t, 0, sequences, func(s *difftest.Seq) {
			runSequence(s, newSide(&armHeader{}), newSide(modelClientHeader{&modelClient{}}))
		})
	})
}
