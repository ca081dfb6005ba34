// Package heap implements record files over the buffer pool. A heap
// file occupies a contiguous extent of device pages; records are
// addressed by RID (page, slot).
//
// Unlike a conventional heap file, placement is explicit: InsertAt
// targets a specific page of the extent. The paper's clustering
// policies (unclustered, inter-object, intra-object — Figs. 8–10) are
// nothing but placement decisions, so the database generator needs to
// dictate exactly which page a record lands on.
package heap

import (
	"context"
	"errors"
	"fmt"

	"revelation/internal/buffer"
	"revelation/internal/disk"
	"revelation/internal/page"
)

// KindHeap tags heap file pages.
const KindHeap uint16 = 0x4845 // "HE"

// Common errors.
var (
	ErrFull        = errors.New("heap: extent full")
	ErrBadPage     = errors.New("heap: page index out of extent")
	ErrNotInExtent = errors.New("heap: rid outside this file")
)

// RID is a record identifier: the physical address of a record.
type RID struct {
	Page disk.PageID
	Slot page.SlotID
}

// NilRID is the zero-value "no record" RID; page 0 is never part of a
// heap extent in practice because extents are allocated after metadata,
// but compare against NilRID where it matters.
var NilRID = RID{Page: disk.InvalidPage}

func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }

// File is a heap file over a contiguous page extent.
type File struct {
	pool  *buffer.Pool
	first disk.PageID
	n     int
	// appendHint is the extent-relative index of the first page that
	// may still have free space, maintained by Insert.
	appendHint int
}

// Create allocates an extent of nPages pages on the pool's device,
// formats them as empty heap pages, and returns the file.
func Create(pool *buffer.Pool, nPages int) (*File, error) {
	if nPages < 1 {
		return nil, fmt.Errorf("heap: create with %d pages", nPages)
	}
	first, err := pool.Device().Allocate(nPages)
	if err != nil {
		return nil, err
	}
	f := &File{pool: pool, first: first, n: nPages}
	for i := 0; i < nPages; i++ {
		fr, err := pool.Fix(first + disk.PageID(i))
		if err != nil {
			return nil, err
		}
		page.Wrap(fr.Data()).Init(KindHeap)
		if err := pool.Unfix(fr, true); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// loadRun is how many pages Load composes before it writes them, as one
// run: over a page service that is one frame per owner instead of one
// round trip per page.
const loadRun = 64

// Load allocates an extent of nPages pages and writes each page once,
// straight to the pool's device: fill places the idx-th page's records
// with put, in order, and the page goes out formatted as Create formats
// it and stamped as the pool's flush stamps it. Pages are composed into
// a run buffer and each full run goes to disk.WritePages; the error of a
// failed run names its first page that failed, and a fill that fails
// leaves the pages before its own written. No page enters the pool
// and nothing is logged, so Load is only for a fresh extent with no log
// attached; a heap whose writes must go through the log uses Create.
func Load(pool *buffer.Pool, nPages int, fill func(idx int, put func(rec []byte) (RID, error)) error) (*File, error) {
	if nPages < 1 {
		return nil, fmt.Errorf("heap: load with %d pages", nPages)
	}
	dev := pool.Device()
	first, err := dev.Allocate(nPages)
	if err != nil {
		return nil, err
	}
	ps, run := dev.PageSize(), min(nPages, loadRun)
	buf := make([]byte, run*ps)
	ids, bufs, errs := make([]disk.PageID, run), make([][]byte, run), make([]error, run)
	for i := range bufs {
		bufs[i] = buf[i*ps : (i+1)*ps]
	}
	var pid disk.PageID
	var pg *page.Page
	put := func(rec []byte) (RID, error) {
		slot, err := pg.Insert(rec)
		return RID{Page: pid, Slot: slot}, err
	}
	// write sends the run's first n pages.
	write := func(n int) error {
		disk.WritePages(dev, ids[:n], bufs[:n], errs[:n])
		for j, err := range errs[:n] {
			if err != nil {
				return fmt.Errorf("heap: load page %d: %w", ids[j], err)
			}
		}
		return nil
	}
	for idx := 0; idx < nPages; idx++ {
		i := idx % run
		pid, pg = first+disk.PageID(idx), page.Wrap(bufs[i])
		ids[i] = pid
		pg.Init(KindHeap)
		if err := fill(idx, put); err != nil {
			// The pages before this one go out first, as a page at a
			// time would have sent them.
			if werr := write(i); werr != nil {
				return nil, werr
			}
			return nil, err
		}
		pg.Stamp()
		if i+1 == run || idx == nPages-1 {
			if err := write(i + 1); err != nil {
				return nil, err
			}
		}
	}
	return &File{pool: pool, first: first, n: nPages}, nil
}

// Open wraps an existing extent previously built by Create or Load.
func Open(pool *buffer.Pool, first disk.PageID, nPages int) *File {
	return &File{pool: pool, first: first, n: nPages}
}

// First returns the extent's first page id.
func (f *File) First() disk.PageID { return f.first }

// NumPages returns the extent length in pages.
func (f *File) NumPages() int { return f.n }

// Pool returns the buffer pool the file runs against.
func (f *File) Pool() *buffer.Pool { return f.pool }

// Contains reports whether the RID falls inside this file's extent.
func (f *File) Contains(rid RID) bool {
	return rid.Page >= f.first && rid.Page < f.first+disk.PageID(f.n)
}

// PageAt translates an extent-relative index to a device page id.
func (f *File) PageAt(idx int) (disk.PageID, error) {
	if idx < 0 || idx >= f.n {
		return disk.InvalidPage, fmt.Errorf("%w: %d of %d", ErrBadPage, idx, f.n)
	}
	return f.first + disk.PageID(idx), nil
}

// InsertAt places rec on the idx-th page of the extent. It fails with
// page.ErrPageFull when that page cannot hold the record.
func (f *File) InsertAt(idx int, rec []byte) (RID, error) {
	pid, err := f.PageAt(idx)
	if err != nil {
		return NilRID, err
	}
	fr, err := f.pool.Fix(pid)
	if err != nil {
		return NilRID, err
	}
	slot, ierr := page.Wrap(fr.Data()).Insert(rec)
	uerr := f.pool.Unfix(fr, ierr == nil)
	if ierr != nil {
		return NilRID, ierr
	}
	if uerr != nil {
		return NilRID, uerr
	}
	return RID{Page: pid, Slot: slot}, nil
}

// Insert places rec on the first extent page with room, scanning from
// the append hint. It fails with ErrFull when the extent is exhausted.
func (f *File) Insert(rec []byte) (RID, error) {
	for idx := f.appendHint; idx < f.n; idx++ {
		rid, err := f.InsertAt(idx, rec)
		if err == nil {
			f.appendHint = idx
			return rid, nil
		}
		if !errors.Is(err, page.ErrPageFull) {
			return NilRID, err
		}
	}
	return NilRID, ErrFull
}

// Get invokes fn with the record bytes while the page is pinned. The
// slice passed to fn aliases buffer memory and must not be retained.
// The pool fix (and any device read behind it) is charged to the query
// span carried in ctx, if any; ctx may be nil.
func (f *File) Get(ctx context.Context, rid RID, fn func(rec []byte) error) error {
	if !f.Contains(rid) {
		return fmt.Errorf("%w: %v", ErrNotInExtent, rid)
	}
	fr, err := f.pool.FixAs(ctx, rid.Page)
	if err != nil {
		return err
	}
	rec, gerr := page.Wrap(fr.Data()).Get(rid.Slot)
	if gerr == nil {
		gerr = fn(rec)
	}
	if uerr := f.pool.Unfix(fr, false); gerr == nil {
		gerr = uerr
	}
	return gerr
}

// Read returns a copy of the record bytes.
func (f *File) Read(rid RID) ([]byte, error) {
	var out []byte
	err := f.Get(nil, rid, func(rec []byte) error {
		out = append([]byte(nil), rec...)
		return nil
	})
	return out, err
}

// Update replaces the record at rid with n bytes that fill writes in
// place (see page.Resize) while the page is pinned; it must not keep them.
// A record that keeps its length is logged alone (Pool.UnfixRange).
func (f *File) Update(rid RID, n int, fill func(rec []byte)) error {
	if !f.Contains(rid) {
		return fmt.Errorf("%w: %v", ErrNotInExtent, rid)
	}
	fr, err := f.pool.Fix(rid.Page)
	if err != nil {
		return err
	}
	pg := page.Wrap(fr.Data())
	if off, length, err := pg.Span(rid.Slot); err == nil && length == n {
		fill(fr.Data()[off : off+n])
		return f.pool.UnfixRange(fr, off, n)
	}
	rec, uerr := pg.Resize(rid.Slot, n)
	if uerr == nil {
		fill(rec)
	}
	if e := f.pool.Unfix(fr, uerr == nil); uerr == nil {
		uerr = e
	}
	return uerr
}

// Scan calls fn for every live record in physical order; fn returning
// false stops the scan early. The record slice is only valid during
// the callback.
func (f *File) Scan(fn func(rid RID, rec []byte) bool) error {
	for idx := 0; idx < f.n; idx++ {
		pid := f.first + disk.PageID(idx)
		fr, err := f.pool.Fix(pid)
		if err != nil {
			return err
		}
		stop := false
		page.Wrap(fr.Data()).Records(func(s page.SlotID, rec []byte) bool {
			if !fn(RID{Page: pid, Slot: s}, rec) {
				stop = true
				return false
			}
			return true
		})
		if err := f.pool.Unfix(fr, false); err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}

// Count returns the number of live records in the file.
func (f *File) Count() (int, error) {
	n := 0
	err := f.Scan(func(RID, []byte) bool { n++; return true })
	return n, err
}
