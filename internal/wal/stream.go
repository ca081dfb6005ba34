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

// Record kinds.
const (
	// RecPage is a page-image record: the full after-image of Page.
	RecPage = byte(0)
	// RecOwnership is a cutover record: pages in [Lo, Hi) owned by
	// Owner under the post-join rendezvous assignment are cut over.
	RecOwnership = byte(1)
)

// Record is one log record: a page after-image (RecPage, the common
// case — Page and Img are set) or an ownership cutover (RecOwnership —
// Lo, Hi, and Owner are set).
type Record struct {
	Kind byte
	LSN  uint64
	Page disk.PageID
	Img  []byte

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
// LSN 1).
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
// The returned image aliases an internal buffer only until the next
// call — it is freshly allocated per record, safe to retain.
func (r *Reader) Next() (Record, error) {
	// Invalidate the cached page: the tail page is exactly the one a
	// concurrent writer rewrites as the log grows.
	r.loaded = -1
	if int(r.pos/r.ps) >= r.dev.NumPages() {
		return Record{}, ErrEndOfLog
	}
	hdr := r.hdr[:]
	if err := r.readAt(r.pos, hdr); err != nil {
		// The header runs off the device: the last append never
		// finished allocating its pages.
		return Record{}, ErrTornTail
	}
	magic := binary.LittleEndian.Uint32(hdr[0:])
	if magic == 0 {
		return Record{}, ErrEndOfLog
	}
	if magic != recMagic && magic != ownMagic {
		return Record{}, ErrTornTail
	}
	lsn := binary.LittleEndian.Uint64(hdr[4:])
	id := disk.PageID(binary.LittleEndian.Uint32(hdr[12:]))
	n := int(binary.LittleEndian.Uint32(hdr[16:]))
	want := binary.LittleEndian.Uint32(hdr[20:])
	if lsn != r.lsn+1 || n == 0 || n > maxImage {
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
	if magic == ownMagic {
		// Ownership payload: [4B hi page][owner name]. The range must
		// be non-empty and named — a violation means corruption that
		// happened to pass the CRC window, treated like any torn tail.
		if n < 5 {
			return Record{}, ErrTornTail
		}
		hi := disk.PageID(binary.LittleEndian.Uint32(img[0:]))
		if hi <= id {
			return Record{}, ErrTornTail
		}
		r.lsn = lsn
		r.pos += int64(recHdrSize + n)
		return Record{Kind: RecOwnership, LSN: lsn, Lo: id, Hi: hi, Owner: string(img[4:])}, nil
	}
	r.lsn = lsn
	r.pos += int64(recHdrSize + n)
	return Record{Kind: RecPage, LSN: lsn, Page: id, Img: img}, nil
}

// ApplyRecord performs the redo-if-newer step for one record against a
// data device: the image is installed iff the resident page is missing,
// fails checksum verification, or carries an older LSN. The device is
// grown as needed. buf must be one page long scratch space (pass nil to
// allocate). It reports whether the image was actually installed —
// re-applying an already-applied record is a no-op, which is what makes
// replica reconnection from a checkpointed LSN safe.
func ApplyRecord(dev disk.Device, rec Record, buf []byte) (bool, error) {
	ps := dev.PageSize()
	if len(rec.Img) != ps {
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
	if grow := int(rec.Page) + 1 - dev.NumPages(); grow > 0 {
		if _, err := dev.Allocate(grow); err != nil {
			return false, fmt.Errorf("wal: apply: grow data device: %w", err)
		}
	}
	if err := dev.ReadPage(rec.Page, buf); err == nil {
		if page.Verify(buf) == nil && page.Wrap(buf).LSN() >= rec.LSN {
			return false, nil
		}
	}
	// The logged image carries its LSN and checksum (stamped at append
	// time), so it is installed verbatim.
	if err := dev.WritePage(rec.Page, rec.Img); err != nil {
		return false, fmt.Errorf("wal: apply: redo page %d: %w", rec.Page, err)
	}
	return true, nil
}
