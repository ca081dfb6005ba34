package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"revelation/internal/disk"
	"revelation/internal/page"
)

// Stream-reading errors. Both mark the end of the currently readable
// log, but they mean different things to different callers: recovery
// discards a torn tail for good, while a live follower (replication's
// Follow RPC) treats either as "nothing more yet" and polls again —
// a torn tail on a log that is still being written is usually just a
// Sync caught mid-flight.
var (
	// ErrEndOfLog reports a clean end: the next record slot is
	// zero-filled (or past the device), exactly where the next append
	// will land.
	ErrEndOfLog = errors.New("wal: end of log")
	// ErrTornTail reports an interrupted append: bad magic, broken LSN
	// sequence, truncated record, or checksum mismatch.
	ErrTornTail = errors.New("wal: torn tail")
)

// ErrDeltaGap reports a delta whose page is neither verified at its prev
// LSN nor at or past its own: a record of the page between is missing.
var ErrDeltaGap = errors.New("wal: delta does not follow the page's LSN")

// Record kinds.
const (
	// RecPage is a page-image record: the full after-image of Page.
	RecPage = byte(0)
	// RecOwnership is a cutover record: pages in [Lo, Hi) owned by
	// Owner under the post-join rendezvous assignment are cut over.
	RecOwnership = byte(1)
	// RecDelta is a delta record: Img replaces Page's bytes at Off, on
	// the page state of LSN Prev.
	RecDelta = byte(2)
	// RecBase is a log's base record, only ever its first: the log's
	// records follow its LSN. It carries nothing to apply.
	RecBase = byte(3)
)

// Record is one log record: a page after-image (RecPage — Page and Img
// are set), a delta (RecDelta — also Prev and Off), an ownership
// cutover (RecOwnership — Lo, Hi, and Owner are set) or a base (RecBase
// — only LSN is set).
type Record struct {
	Kind byte
	LSN  uint64
	Page disk.PageID
	Img  []byte

	Prev uint64
	Off  int

	Lo, Hi disk.PageID
	Owner  string
}

// Reader iterates a log device's records in order, incrementally: it
// remembers its byte offset and last LSN, so a caller can drain to the
// end, wait for the log to grow, and resume — the access pattern of a
// replication follower. Next re-reads the device on every retry after
// an end/torn result, so records appended in the meantime are seen.
//
// A Reader is not safe for concurrent use.
type Reader struct {
	dev    disk.Device
	ps     int64
	pos    int64
	lsn    uint64
	buf    []byte
	loaded int // page index resident in buf; -1 none
	// hdr is the header being read: crc32.Update moves a local one to the heap.
	hdr [recHdrSize]byte
}

// NewReader starts a reader at the front of the log (next expected
// LSN 1, or any base).
func NewReader(dev disk.Device) *Reader {
	return &Reader{
		dev:    dev,
		ps:     int64(dev.PageSize()),
		buf:    make([]byte, dev.PageSize()),
		loaded: -1,
	}
}

// Offset returns the byte offset of the next record to read — the end
// of the valid prefix consumed so far.
func (r *Reader) Offset() int64 { return r.pos }

// LastLSN returns the LSN of the last record returned (0 before any).
func (r *Reader) LastLSN() uint64 { return r.lsn }

// readAt fills dst from the stream at offset off, failing once the
// stream runs past the device's allocated pages.
func (r *Reader) readAt(off int64, dst []byte) error {
	for len(dst) > 0 {
		pi := int(off / r.ps)
		if pi >= r.dev.NumPages() {
			return fmt.Errorf("wal: log ends inside a record at offset %d", off)
		}
		if pi != r.loaded {
			if err := r.dev.ReadPage(disk.PageID(pi), r.buf); err != nil {
				return err
			}
			r.loaded = pi
		}
		o := int(off % r.ps)
		n := copy(dst, r.buf[o:])
		dst = dst[n:]
		off += int64(n)
	}
	return nil
}

// Next returns the next valid record, or ErrEndOfLog at a clean end,
// or ErrTornTail at an interrupted append. After either error the
// reader stays positioned at the same offset and drops its page cache,
// so a later Next observes appends (or repairs) that happened since.
// A record's image, or a delta's bytes, is freshly allocated for it and
// safe to retain.
func (r *Reader) Next() (Record, error) {
	// Invalidate the cached page: the tail page is exactly the one a
	// concurrent writer rewrites as the log grows.
	r.loaded = -1
	if int(r.pos/r.ps) >= r.dev.NumPages() {
		return Record{}, ErrEndOfLog
	}
	hdr := r.hdr[:]
	if err := r.readAt(r.pos, hdr); err != nil {
		// The header runs off the device: after zeros, a clean end near
		// the last page's end; else an append that never grew the log.
		if rest := int64(r.dev.NumPages())*r.ps - r.pos; rest < recHdrSize && page.ZeroImage(hdr[:rest]) {
			return Record{}, ErrEndOfLog
		}
		return Record{}, ErrTornTail
	}
	magic := binary.LittleEndian.Uint32(hdr[0:])
	if magic == 0 {
		return Record{}, ErrEndOfLog
	}
	base := magic == baseMagic
	if magic != recMagic && magic != deltaMagic && magic != ownMagic && !base {
		return Record{}, ErrTornTail
	}
	lsn := binary.LittleEndian.Uint64(hdr[4:])
	id := disk.PageID(binary.LittleEndian.Uint32(hdr[12:]))
	n := int(binary.LittleEndian.Uint32(hdr[16:]))
	want := binary.LittleEndian.Uint32(hdr[20:])
	if base {
		// A base has no payload and only opens a log, at any LSN.
		if r.pos != 0 || lsn == 0 || id != 0 || n != 0 {
			return Record{}, ErrTornTail
		}
	} else if lsn != r.lsn+1 || n == 0 || n > maxImage {
		return Record{}, ErrTornTail
	}
	// A payload that would run off the device is an append that never
	// finished; say so before sizing a buffer by an unchecked length.
	if r.pos+recHdrSize+int64(n) > int64(r.dev.NumPages())*r.ps {
		return Record{}, ErrTornTail
	}
	img := make([]byte, n)
	if err := r.readAt(r.pos+recHdrSize, img); err != nil {
		return Record{}, ErrTornTail
	}
	crc := crc32.Update(crc32.Update(0, castagnoli, hdr[:20]), castagnoli, img)
	if crc != want {
		return Record{}, ErrTornTail
	}
	rec := Record{Kind: RecPage, LSN: lsn, Page: id, Img: img}
	// A payload that breaks its kind's rules passed the CRC window by
	// chance: a torn tail like any other.
	switch magic {
	case baseMagic:
		rec = Record{Kind: RecBase, LSN: lsn}
	case ownMagic: // [4B hi page][owner name], a non-empty range
		if n < 5 {
			return Record{}, ErrTornTail
		}
		hi := disk.PageID(binary.LittleEndian.Uint32(img[0:]))
		if hi <= id {
			return Record{}, ErrTornTail
		}
		rec = Record{Kind: RecOwnership, LSN: lsn, Lo: id, Hi: hi, Owner: string(img[4:])}
	case deltaMagic: // bytes past the header, on an earlier record
		if n <= deltaHdrSize {
			return Record{}, ErrTornTail
		}
		rec.Kind, rec.Img = RecDelta, img[deltaHdrSize:]
		rec.Prev = binary.LittleEndian.Uint64(img[0:])
		rec.Off = int(binary.LittleEndian.Uint16(img[8:]))
		if rec.Prev == 0 || rec.Prev >= lsn || rec.Off < page.HeaderSize {
			return Record{}, ErrTornTail
		}
	}
	r.lsn = lsn
	r.pos += int64(recHdrSize + n)
	return rec, nil
}

// ApplyRecord performs the redo-if-newer step for one record against a
// data device. A record whose page verifies at or past its LSN is
// skipped. Otherwise an image is installed; a delta is applied onto a
// page verified at exactly its prev LSN, and stamped, or else fails
// with ErrDeltaGap, changing nothing. The device is grown as needed.
// buf must be one page long scratch space (pass nil to allocate). It
// reports whether the record was actually applied — re-applying an
// already-applied record is a no-op, which is what makes replica
// reconnection from a checkpointed LSN safe.
func ApplyRecord(dev disk.Device, rec Record, buf []byte) (bool, error) {
	ps := dev.PageSize()
	switch {
	case rec.Kind == RecDelta && (rec.Off < page.HeaderSize || len(rec.Img) == 0 || rec.Off+len(rec.Img) > ps):
		return false, fmt.Errorf("wal: delta %d covers [%d, %d) of a %d-byte page",
			rec.LSN, rec.Off, rec.Off+len(rec.Img), ps)
	case rec.Kind != RecDelta && len(rec.Img) != ps:
		return false, fmt.Errorf("wal: record %d holds a %d-byte image for a %d-byte-page device",
			rec.LSN, len(rec.Img), ps)
	}
	if buf == nil {
		buf = make([]byte, ps)
	} else if len(buf) != ps {
		return false, fmt.Errorf("wal: apply scratch buffer is %d bytes, want %d", len(buf), ps)
	}
	// One growth to cover the page, however far past the end it lies: a
	// replica's device may be remote, where every call is a round trip.
	// A delta's page past the end is missing: the read fails.
	if grow := int(rec.Page) + 1 - dev.NumPages(); grow > 0 && rec.Kind != RecDelta {
		if _, err := dev.Allocate(grow); err != nil {
			return false, fmt.Errorf("wal: apply: grow data device: %w", err)
		}
	}
	verified := dev.ReadPage(rec.Page, buf) == nil && page.Verify(buf) == nil
	at := page.Wrap(buf).LSN()
	if verified && at >= rec.LSN {
		return false, nil
	}
	// The logged image carries its LSN and checksum (stamped at append
	// time), so it is installed verbatim.
	img := rec.Img
	if rec.Kind == RecDelta {
		if !verified || at != rec.Prev {
			return false, fmt.Errorf("%w: page %d (verified %v) is at LSN %d, delta %d follows %d",
				ErrDeltaGap, rec.Page, verified, at, rec.LSN, rec.Prev)
		}
		copy(buf[rec.Off:], rec.Img)
		page.Wrap(buf).SetLSN(rec.LSN)
		page.Stamp(buf)
		img = buf
	}
	if err := dev.WritePage(rec.Page, img); err != nil {
		return false, fmt.Errorf("wal: apply: redo page %d: %w", rec.Page, err)
	}
	return true, nil
}
