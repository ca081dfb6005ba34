// Package wal implements a physiological write-ahead log and the redo
// recovery that replays it — the durability half of the ARIES
// discipline (Mohan et al.; see PAPERS.md) with no undo pass: a page
// record carries a page's complete after-image, a delta record only the
// bytes an in-place update wrote, on top of the page's previous record.
//
// The contract with the buffer pool (which consumes this package
// through the buffer.WAL interface):
//
//  1. Every time a page is dirtied, it is logged. Append assigns its
//     full image a fresh LSN, writes that LSN and a CRC-32C checksum into
//     the image itself, and buffers the record in memory. Once the log
//     holds the image since the page was last clean, AppendDelta may log
//     an in-place update's bytes instead; it stamps only the LSN.
//  2. Sync (or SyncTo) makes buffered records durable, in order, on the
//     log's own disk.Device. A Sync is the commit point: everything
//     appended before a completed Sync survives any later crash.
//  3. No data-page write may leave the pool before the log is durable
//     through that page's LSN (the WAL-before-data rule, enforced by
//     the pool's flush path calling SyncTo).
//
// After a crash, Recover scans the log from the front, discards the
// torn tail (first record whose header, sequence, or checksum fails),
// reinstalls every logged image onto any data page that is missing,
// corrupt, or older than the image, and applies every delta onto the
// page state it follows — restoring the database to exactly the state
// of the last completed Sync.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"revelation/internal/disk"
	"revelation/internal/metrics"
	"revelation/internal/page"
)

// Record layout on the log device (little endian), a byte stream laid
// over pages from offset zero:
//
//	[0:4)   magic "WALR"
//	[4:12)  LSN uint64 (strictly sequential from the base, else from 1)
//	[12:16) page id uint32
//	[16:20) image length uint32
//	[20:24) CRC-32C over bytes [0:20) plus the image
//	[24:)   page image
//
// Records span page boundaries freely; the page after the last written
// byte is zero-filled, so a clean log ends at a zero magic.
//
// A delta record (magic "WALD") shares the layout; its payload is
// [8B prev LSN][2B offset][bytes]. The bytes replace the page's at the
// offset, past the page header; prev is the LSN of the page's previous
// record.
//
// A further record kind shares the layout with a different magic:
// ownership (cutover) records, appended by the fleet's live-resharding
// migrator. Their header reuses the page-id slot for the range's low
// page and the length slot for the payload — [4B hi page][owner name]:
//
//	[0:4)   magic "WALO"
//	[4:12)  LSN (same sequence as page records)
//	[12:16) lo page id uint32 (inclusive)
//	[16:20) payload length uint32
//	[20:24) CRC-32C over bytes [0:20) plus the payload
//	[24:)   [4B hi page id (exclusive)][owner member name]
//
// An ownership record durably marks a cutover: every page in [lo, hi)
// whose rendezvous assignment under the post-join member set is the
// named owner is, from this record on, served by that owner. Recovery
// replays these in LSN order to rebuild the ownership table; pages in
// ranges never cut stay with their pre-join owner — so at every crash
// point each page has exactly one owner.
//
// A log that must follow an earlier one's LSNs starts with a base
// record (magic "WALB", a header with no payload) at offset zero. Its
// LSN is the base: the log's first record takes the next one. A log
// based at 1 has none, and is the same bytes as before bases existed.
const (
	recMagic     = 0x57414C52 // "WALR"
	deltaMagic   = 0x57414C44 // "WALD"
	ownMagic     = 0x57414C4F // "WALO"
	baseMagic    = 0x57414C42 // "WALB"
	recHdrSize   = 24
	deltaHdrSize = 10 // a delta payload's prev LSN and offset

	// maxImage bounds the length field during scans, so a corrupt
	// header cannot cause a giant allocation.
	maxImage = 1 << 20
)

// ErrClosed reports use of a closed writer.
var ErrClosed = errors.New("wal: writer closed")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Writer is the append side of the log. It buffers records in memory
// between Syncs (group commit: one Sync makes every buffered record
// durable in a single pass) and owns the log device's write offset.
// Methods are safe for concurrent use.
type Writer struct {
	mu       sync.Mutex
	dev      disk.Device
	pageSize int
	stamp    *page.Stamper // for images of pageSize bytes

	// tail is the durable end of the byte stream; buf holds appended
	// records not yet synced; cur[:tail%pageSize] is the durable prefix
	// of the page containing tail (it must be rewritten byte-identically
	// when the page is filled further), and past it cur is scratch.
	tail int64
	buf  []byte
	cur  []byte

	nextLSN     uint64 // LSN the next Append will take
	appendedLSN uint64 // newest appended (possibly unsynced) LSN
	durableLSN  uint64 // newest synced LSN

	// err is sticky: once the log device fails, every later operation
	// fails the same way — a half-written log must not accept more.
	err    error
	closed bool

	appends metrics.Counter
	fsyncs  metrics.Counter
}

// Open builds a writer over dev, resuming after any existing log
// content: it scans to the end of the valid prefix and appends from
// there, continuing the LSN sequence. A torn tail left by a crash is
// simply overwritten by subsequent appends. A fresh device yields an
// empty log starting at LSN 1, or after its base record's LSN.
func Open(dev disk.Device) (*Writer, error) {
	w := &Writer{
		dev:      dev,
		pageSize: dev.PageSize(),
		stamp:    page.NewStamper(dev.PageSize()),
		cur:      make([]byte, dev.PageSize()),
	}
	end, next, _, err := scan(dev, nil)
	if err != nil {
		return nil, err
	}
	w.tail = end
	w.nextLSN = next
	w.appendedLSN = next - 1
	w.durableLSN = next - 1
	if end%int64(w.pageSize) != 0 {
		// cur takes the tail page's durable prefix; what follows it is
		// scratch the next sync overwrites.
		pi := disk.PageID(end / int64(w.pageSize))
		if err := dev.ReadPage(pi, w.cur); err != nil {
			return nil, fmt.Errorf("wal: open: reload tail page %d: %w", pi, err)
		}
	}
	return w, nil
}

// OpenAfter is Open for a log whose records must all come after LSN
// after — the durable LSN of the log it replaces, which the data pages
// it now covers may carry. On a fresh device it writes and syncs a base
// record, so the log keeps its base with no record after it; a log that
// already continues past after is resumed as Open would, and one that
// does not is refused. OpenAfter(dev, 0) is Open(dev).
func OpenAfter(dev disk.Device, after uint64) (*Writer, error) {
	w, err := Open(dev)
	switch {
	case err != nil:
		return nil, err
	case w.nextLSN > after:
		return w, nil
	case w.tail != 0:
		return nil, fmt.Errorf("wal: open after LSN %d: the log ends at LSN %d", after, w.nextLSN-1)
	}
	w.seal(w.appendHeader(baseMagic, after, 0, 0))
	w.nextLSN, w.appendedLSN = after+1, after
	if err := w.syncLocked(); err != nil {
		return nil, err
	}
	return w, nil
}

// RegisterMetrics attaches the writer's counters to r under the given
// log name.
func (w *Writer) RegisterMetrics(r *metrics.Registry, log string) {
	r.Attach("asm_wal_appends_total", "Page images appended to the write-ahead log.",
		&w.appends, "log", log)
	r.Attach("asm_wal_fsyncs_total", "Write-ahead log sync operations.",
		&w.fsyncs, "log", log)
}

// Append logs img as the after-image of page id and returns the LSN it
// was assigned. The image is mutated in place — its LSN and checksum
// fields are stamped — so the caller's frame and the logged record are
// byte-identical. The record is buffered; it is not durable until the
// next Sync.
func (w *Writer) Append(id disk.PageID, img []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	lsn, err := w.takeLSN()
	if err != nil {
		return 0, err
	}
	page.Wrap(img).SetLSN(lsn)
	h := w.appendHeader(recMagic, lsn, id, len(img))
	// The page checksum and the record CRC over the header and the
	// stamped image, one read of the image between them.
	crc := w.stamp.StampSum(crc32.Update(0, castagnoli, w.buf[h:h+20]), img)
	binary.LittleEndian.PutUint32(w.buf[h+20:], crc)
	w.buf = append(w.buf, img...)
	w.appends.Inc()
	return lsn, nil
}

// AppendOwnership logs a cutover record: pages in [lo, hi) whose
// rendezvous owner under the new member set is owner are cut over to
// it. The record shares the log's LSN sequence with page images and is
// buffered like them — the cutover is durable only after the next
// Sync, and the migrator must not flip its in-memory routing before
// that Sync returns (WAL-before-ownership, the resharding analogue of
// WAL-before-data).
func (w *Writer) AppendOwnership(lo, hi disk.PageID, owner string) (uint64, error) {
	if hi <= lo {
		return 0, fmt.Errorf("wal: ownership range [%d, %d) is empty", lo, hi)
	}
	if owner == "" {
		return 0, errors.New("wal: ownership record needs an owner name")
	}
	if len(owner) > maxImage-4 {
		return 0, fmt.Errorf("wal: owner name %d bytes long", len(owner))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	lsn, err := w.takeLSN()
	if err != nil {
		return 0, err
	}
	n := 4 + len(owner)
	h := w.appendHeader(ownMagic, lsn, lo, n)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(hi))
	w.buf = append(w.buf, owner...)
	w.seal(h)
	w.appends.Inc()
	return lsn, nil
}

// AppendDelta logs bytes [off, off+n) of img, page id's image, past its
// header, as a delta on the LSN img carries, and stamps img with the new
// LSN; its checksum is left for the pool's flush. The caller guarantees
// that the log holds the page's full image since the page was last
// clean and that no other byte changed since the page's last record.
func (w *Writer) AppendDelta(id disk.PageID, img []byte, off, n int) (uint64, error) {
	if off < page.HeaderSize || n < 1 || off+n > len(img) {
		return 0, fmt.Errorf("wal: delta [%d, %d) of a %d-byte page", off, off+n, len(img))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	pg := page.Wrap(img)
	prev := pg.LSN()
	if prev == 0 || prev >= w.nextLSN {
		return 0, fmt.Errorf("wal: delta of page %d follows LSN %d, not a record of this log (next %d)", id, prev, w.nextLSN)
	}
	lsn, err := w.takeLSN()
	if err != nil {
		return 0, err
	}
	pg.SetLSN(lsn)
	h := w.appendHeader(deltaMagic, lsn, id, deltaHdrSize+n)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, prev)
	w.buf = binary.LittleEndian.AppendUint16(w.buf, uint16(off))
	w.buf = append(w.buf, img[off:off+n]...)
	w.seal(h)
	w.appends.Inc()
	return lsn, nil
}

// takeLSN hands out the next LSN, or why there is none. Caller holds mu.
func (w *Writer) takeLSN() (uint64, error) {
	if w.closed {
		return 0, ErrClosed
	}
	if w.err != nil {
		return 0, w.err
	}
	lsn := w.nextLSN
	w.nextLSN++
	w.appendedLSN = lsn
	return lsn, nil
}

// seal fills in the CRC of the record at h, which ends the buffer.
func (w *Writer) seal(h int) {
	crc := crc32.Update(crc32.Update(0, castagnoli, w.buf[h:h+20]), castagnoli, w.buf[h+recHdrSize:])
	binary.LittleEndian.PutUint32(w.buf[h+20:], crc)
}

// appendHeader appends a record header for an n-byte payload to the
// pending buffer, its CRC field zero, and returns where it starts. The
// header is built in the buffer itself: crc32.Update calls through a
// function variable, so a header array on the stack would be moved to
// the heap, one allocation per record.
func (w *Writer) appendHeader(magic uint32, lsn uint64, id disk.PageID, n int) int {
	h := len(w.buf)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, magic)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, lsn)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(id))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(n))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, 0)
	return h
}

// Sync makes every buffered record durable: the pending bytes are laid
// over log pages from the current tail (rewriting the partial last page
// with its durable prefix intact) and the tail advances. On return,
// DurableLSN has caught up with the newest appended record. Errors are
// sticky.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

// SyncTo makes the log durable through at least lsn, syncing only if
// needed. lsn 0 (a never-logged page) is vacuously durable.
func (w *Writer) SyncTo(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if lsn == 0 || w.durableLSN >= lsn {
		return nil
	}
	if err := w.syncLocked(); err != nil {
		return err
	}
	if w.durableLSN < lsn {
		return fmt.Errorf("wal: sync to %d: log ends at %d", lsn, w.durableLSN)
	}
	return nil
}

func (w *Writer) syncLocked() error {
	if w.closed {
		return ErrClosed
	}
	if w.err != nil {
		return w.err
	}
	if len(w.buf) == 0 {
		return nil
	}
	pending := w.buf
	synced := int64(len(pending))
	ps := int64(w.pageSize)
	// The log grows once, to cover the last page this sync reaches.
	if grow := int((w.tail+synced-1)/ps) + 1 - w.dev.NumPages(); grow > 0 {
		if _, err := w.dev.Allocate(grow); err != nil {
			w.err = fmt.Errorf("wal: sync: %w", err)
			return w.err
		}
	}
	for len(pending) > 0 {
		off := int(w.tail % ps)
		n := min(w.pageSize-off, len(pending))
		// A whole page goes out straight from the buffer. A partial one
		// goes through cur: the page's durable prefix, the new bytes, zeros.
		img := pending[:n]
		if n < w.pageSize {
			copy(w.cur[off:], img)
			clear(w.cur[off+n:])
			img = w.cur
		}
		if err := w.dev.WritePage(disk.PageID(w.tail/ps), img); err != nil {
			w.err = fmt.Errorf("wal: sync: %w", err)
			return w.err
		}
		w.tail += int64(n)
		pending = pending[n:]
	}
	w.buf = w.buf[:0]
	w.durableLSN = w.appendedLSN
	w.fsyncs.Inc()
	return nil
}

// DurableLSN returns the newest LSN the log guarantees to survive a
// crash.
func (w *Writer) DurableLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durableLSN
}

// Tail returns the durable end of the log byte stream.
func (w *Writer) Tail() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.tail
}

// Close syncs any buffered records and marks the writer unusable. Like
// the buffer pool, it refuses to close over a failed sync, so pending
// records are never silently dropped.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	if err := w.syncLocked(); err != nil {
		return err
	}
	w.closed = true
	return nil
}
