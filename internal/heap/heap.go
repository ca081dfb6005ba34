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

// Load allocates an extent of nPages pages and writes each page once,
// straight to the pool's device: fill places the idx-th page's records
// with put, in order, and the page goes out formatted as Create formats
// it and stamped as the pool's flush stamps it. No page enters the pool
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
	pid, pg := first, page.Wrap(make([]byte, dev.PageSize()))
	put := func(rec []byte) (RID, error) {
		slot, err := pg.Insert(rec)
		return RID{Page: pid, Slot: slot}, err
	}
	for idx := 0; idx < nPages; idx++ {
		pid = first + disk.PageID(idx)
		pg.Init(KindHeap)
		if err := fill(idx, put); err != nil {
			return nil, err
		}
		pg.Stamp()
		if err := dev.WritePage(pid, pg.Bytes()); err != nil {
			return nil, fmt.Errorf("heap: load page %d: %w", pid, err)
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
func (f *File) Get(rid RID, fn func(rec []byte) error) error {
	return f.GetCtx(nil, rid, fn)
}

// GetCtx is Get with per-query attribution: the pool fix (and any
// device read behind it) is charged to the query span carried in ctx.
// A nil ctx behaves exactly like Get.
func (f *File) GetCtx(ctx context.Context, rid RID, fn func(rec []byte) error) error {
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
	err := f.Get(rid, func(rec []byte) error {
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

// Delete removes the record at rid.
func (f *File) Delete(rid RID) error {
	if !f.Contains(rid) {
		return fmt.Errorf("%w: %v", ErrNotInExtent, rid)
	}
	fr, err := f.pool.Fix(rid.Page)
	if err != nil {
		return err
	}
	derr := page.Wrap(fr.Data()).Delete(rid.Slot)
	if e := f.pool.Unfix(fr, derr == nil); derr == nil {
		derr = e
	}
	return derr
}

// Check validates every page of the extent: each must wrap a
// structurally sound slotted page (bounds-checked slot directory, see
// page.Validate) tagged KindHeap. It is the post-recovery integrity
// sweep for heap files; checksum verification already happened on the
// way into the pool.
func (f *File) Check() error {
	for idx := 0; idx < f.n; idx++ {
		pid := f.first + disk.PageID(idx)
		fr, err := f.pool.Fix(pid)
		if err != nil {
			return fmt.Errorf("heap: check page %d: %w", pid, err)
		}
		p := page.Wrap(fr.Data())
		verr := p.Validate()
		if verr == nil && p.Kind() != KindHeap {
			verr = fmt.Errorf("heap: page %d kind %#x, want %#x", pid, p.Kind(), KindHeap)
		}
		if uerr := f.pool.Unfix(fr, false); verr == nil {
			verr = uerr
		}
		if verr != nil {
			return verr
		}
	}
	return nil
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
