// Package page implements the slotted-page record layout used by heap
// files and the B+-tree. A page is a fixed-size byte slice with a small
// header, a slot directory growing from the front, and record data
// growing from the back:
//
//	+--------+------------------+ ................ +-----------+
//	| header | slot 0 | slot 1 |   free space      | rec1 |rec0 |
//	+--------+------------------+ ................ +-----------+
//
// Header layout (32 bytes):
//
//	[0:2)   uint16 number of slots (including dead ones)
//	[2:4)   uint16 offset of the start of record data (free-space end)
//	[4:6)   uint16 bytes of live record data (for compaction accounting)
//	[6:8)   uint16 page kind tag (opaque to this package)
//	[8:12)  uint32 next-page link (heap file chaining; InvalidPage if none)
//	[12:16) uint32 self page id (integrity checks)
//	[16:24) uint64 LSN (log sequence number of the last WAL record
//	        describing this page; see internal/wal)
//	[24:28) uint32 CRC-32C page checksum (stamped on flush, verified
//	        on read; computed with this field zeroed — see checksum.go)
//	[28:32) reserved
//
// With this header, 4-byte slots, and 96-byte object records, exactly
// nine objects fit a 1 KB page — the geometry stated in the paper's
// Section 6.
//
// Each slot is 4 bytes: uint16 record offset, uint16 record length.
// Offset 0 marks a dead slot (records can never start at offset 0
// because the header occupies it).
package page

import (
	"encoding/binary"
	"errors"
	"fmt"

	"revelation/internal/disk"
)

const (
	// HeaderSize is the fixed page header length in bytes.
	HeaderSize = 32
	// SlotSize is the per-record slot directory entry length.
	SlotSize = 4

	offNumSlots = 0
	offFreeEnd  = 2
	offLiveData = 4
	offKind     = 6
	offNext     = 8
	offSelf     = 12
	offLSN      = 16
	offChecksum = 24
)

// Common errors.
var (
	ErrPageFull    = errors.New("page: not enough free space")
	ErrBadSlot     = errors.New("page: invalid slot")
	ErrDeadSlot    = errors.New("page: slot is dead")
	ErrRecordSize  = errors.New("page: record too large for a page")
	ErrCorruptPage = errors.New("page: corrupt page image")
)

// SlotID identifies a record within a page.
type SlotID uint16

// Page wraps a raw page image with slotted-record operations. The
// underlying buffer is owned by the buffer pool; Page never allocates.
type Page struct {
	buf []byte
}

// Wrap interprets buf as a slotted page. It does not validate; call
// Init on fresh pages before first use.
func Wrap(buf []byte) *Page { return &Page{buf: buf} }

// Init formats the page as empty with the given kind tag.
func (p *Page) Init(kind uint16) {
	for i := range p.buf {
		p.buf[i] = 0
	}
	binary.LittleEndian.PutUint16(p.buf[offNumSlots:], 0)
	binary.LittleEndian.PutUint16(p.buf[offFreeEnd:], uint16(len(p.buf)))
	binary.LittleEndian.PutUint16(p.buf[offLiveData:], 0)
	binary.LittleEndian.PutUint16(p.buf[offKind:], kind)
	binary.LittleEndian.PutUint32(p.buf[offNext:], uint32(disk.InvalidPage))
}

// Bytes exposes the raw image (for the buffer pool to flush).
func (p *Page) Bytes() []byte { return p.buf }

// Kind returns the page kind tag set at Init.
func (p *Page) Kind() uint16 { return binary.LittleEndian.Uint16(p.buf[offKind:]) }

// SetKind updates the page kind tag.
func (p *Page) SetKind(kind uint16) { binary.LittleEndian.PutUint16(p.buf[offKind:], kind) }

// Next returns the next-page link used for heap file chaining.
func (p *Page) Next() disk.PageID {
	return disk.PageID(binary.LittleEndian.Uint32(p.buf[offNext:]))
}

// SetNext updates the next-page link.
func (p *Page) SetNext(id disk.PageID) {
	binary.LittleEndian.PutUint32(p.buf[offNext:], uint32(id))
}

// LSN returns the page's log sequence number: the LSN of the newest
// WAL record holding this page's image. Zero means the page has never
// been logged.
func (p *Page) LSN() uint64 { return binary.LittleEndian.Uint64(p.buf[offLSN:]) }

// SetLSN records the page's log sequence number.
func (p *Page) SetLSN(lsn uint64) { binary.LittleEndian.PutUint64(p.buf[offLSN:], lsn) }

// NumSlots returns the size of the slot directory (including dead slots).
func (p *Page) NumSlots() int {
	return int(binary.LittleEndian.Uint16(p.buf[offNumSlots:]))
}

func (p *Page) freeEnd() int {
	return int(binary.LittleEndian.Uint16(p.buf[offFreeEnd:]))
}

func (p *Page) liveData() int {
	return int(binary.LittleEndian.Uint16(p.buf[offLiveData:]))
}

func (p *Page) slotOffLen(s SlotID) (off, length int) {
	base := HeaderSize + int(s)*SlotSize
	off = int(binary.LittleEndian.Uint16(p.buf[base:]))
	length = int(binary.LittleEndian.Uint16(p.buf[base+2:]))
	return off, length
}

// slotInBounds reports whether slot s's directory entry lies within the
// image. A hostile slot count can claim a directory past the page end;
// every accessor checks before dereferencing.
func (p *Page) slotInBounds(s SlotID) bool {
	return HeaderSize+(int(s)+1)*SlotSize <= len(p.buf)
}

// headerSane reports whether the free-space pointer can be trusted for
// placement arithmetic. Mutating operations refuse pages that fail it.
func (p *Page) headerSane() bool {
	fe := p.freeEnd()
	return fe >= HeaderSize && fe <= len(p.buf) &&
		HeaderSize+p.NumSlots()*SlotSize <= len(p.buf)
}

// Validate bounds-checks the header and the whole slot directory
// against the image, so a corrupt or hostile page is rejected before
// any record access can misread it. It checks: the slot directory fits
// the page; the free-space pointer lies between the directory and the
// page end; every live slot's record lies entirely inside
// [freeEnd, len); dead slots carry zero length; and the live-data
// accounting matches the sum of live record lengths.
func (p *Page) Validate() error {
	if len(p.buf) < HeaderSize {
		return fmt.Errorf("%w: image of %d bytes", ErrCorruptPage, len(p.buf))
	}
	n := p.NumSlots()
	dirEnd := HeaderSize + n*SlotSize
	if dirEnd > len(p.buf) {
		return fmt.Errorf("%w: %d slots overflow %d-byte page", ErrCorruptPage, n, len(p.buf))
	}
	fe := p.freeEnd()
	if fe < dirEnd || fe > len(p.buf) {
		return fmt.Errorf("%w: free end %d outside [%d,%d]", ErrCorruptPage, fe, dirEnd, len(p.buf))
	}
	live := 0
	for s := 0; s < n; s++ {
		off, length := p.slotOffLen(SlotID(s))
		if off == 0 {
			if length != 0 {
				return fmt.Errorf("%w: dead slot %d with length %d", ErrCorruptPage, s, length)
			}
			continue
		}
		if off < fe || off+length > len(p.buf) {
			return fmt.Errorf("%w: slot %d record [%d,%d) outside [%d,%d)",
				ErrCorruptPage, s, off, off+length, fe, len(p.buf))
		}
		live += length
	}
	if live != p.liveData() {
		return fmt.Errorf("%w: live data %d, slots sum to %d", ErrCorruptPage, p.liveData(), live)
	}
	return nil
}

func (p *Page) setSlot(s SlotID, off, length int) {
	base := HeaderSize + int(s)*SlotSize
	binary.LittleEndian.PutUint16(p.buf[base:], uint16(off))
	binary.LittleEndian.PutUint16(p.buf[base+2:], uint16(length))
}

// FreeSpace reports the bytes available for a new record, accounting
// for the slot directory entry the record would need.
func (p *Page) FreeSpace() int {
	free := p.freeEnd() - (HeaderSize + p.NumSlots()*SlotSize)
	free -= SlotSize // the new record's slot entry
	if free < 0 {
		return 0
	}
	return free
}

// MaxRecordSize is the largest record Insert can ever accept for the
// given page size.
func MaxRecordSize(pageSize int) int {
	return pageSize - HeaderSize - SlotSize
}

// Insert adds a record and returns its slot. A dead slot is reused if
// one exists; the directory grows otherwise. Returns ErrPageFull when
// the record does not fit.
func (p *Page) Insert(rec []byte) (SlotID, error) {
	if len(rec) > MaxRecordSize(len(p.buf)) {
		return 0, fmt.Errorf("%w: %d bytes", ErrRecordSize, len(rec))
	}
	if !p.headerSane() {
		return 0, fmt.Errorf("%w: free end %d of %d", ErrCorruptPage, p.freeEnd(), len(p.buf))
	}
	// Find a dead slot to reuse.
	slot := SlotID(p.NumSlots())
	reuse := false
	for s := 0; s < p.NumSlots(); s++ {
		if off, _ := p.slotOffLen(SlotID(s)); off == 0 {
			slot = SlotID(s)
			reuse = true
			break
		}
	}
	need := len(rec)
	if !reuse {
		need += SlotSize
	}
	if p.freeEnd()-(HeaderSize+p.NumSlots()*SlotSize) < need {
		// Try compaction before giving up: dead slots may have left
		// holes in the record area.
		p.compact()
		if p.freeEnd()-(HeaderSize+p.NumSlots()*SlotSize) < need {
			return 0, ErrPageFull
		}
	}
	newEnd := p.freeEnd() - len(rec)
	copy(p.buf[newEnd:], rec)
	binary.LittleEndian.PutUint16(p.buf[offFreeEnd:], uint16(newEnd))
	binary.LittleEndian.PutUint16(p.buf[offLiveData:], uint16(p.liveData()+len(rec)))
	if !reuse {
		binary.LittleEndian.PutUint16(p.buf[offNumSlots:], uint16(p.NumSlots()+1))
	}
	p.setSlot(slot, newEnd, len(rec))
	return slot, nil
}

// Span locates the live record in slot s: it starts off bytes into the
// image, past the header, and is length bytes long.
func (p *Page) Span(s SlotID) (off, length int, err error) {
	if int(s) >= p.NumSlots() {
		return 0, 0, fmt.Errorf("%w: slot %d of %d", ErrBadSlot, s, p.NumSlots())
	}
	if !p.slotInBounds(s) {
		return 0, 0, fmt.Errorf("%w: slot %d directory entry past page end", ErrCorruptPage, s)
	}
	off, length = p.slotOffLen(s)
	if off == 0 {
		return 0, 0, fmt.Errorf("%w: slot %d", ErrDeadSlot, s)
	}
	if off < HeaderSize || off+length > len(p.buf) {
		return 0, 0, fmt.Errorf("%w: slot %d record [%d,%d) out of bounds", ErrCorruptPage, s, off, off+length)
	}
	return off, length, nil
}

// Get returns a view of the record in slot s. The returned slice
// aliases the page image and is only valid while the page stays pinned
// and unmodified.
func (p *Page) Get(s SlotID) ([]byte, error) {
	if int(s) >= p.NumSlots() {
		return nil, fmt.Errorf("%w: slot %d of %d", ErrBadSlot, s, p.NumSlots())
	}
	if !p.slotInBounds(s) {
		return nil, fmt.Errorf("%w: slot %d directory entry past page end", ErrCorruptPage, s)
	}
	off, length := p.slotOffLen(s)
	if off == 0 {
		return nil, fmt.Errorf("%w: slot %d", ErrDeadSlot, s)
	}
	if off < HeaderSize || off+length > len(p.buf) {
		return nil, fmt.Errorf("%w: slot %d record [%d,%d) out of bounds", ErrCorruptPage, s, off, off+length)
	}
	return p.buf[off : off+length], nil
}

// Delete marks slot s dead and releases its record bytes for future
// compaction.
func (p *Page) Delete(s SlotID) error {
	if int(s) >= p.NumSlots() {
		return fmt.Errorf("%w: slot %d of %d", ErrBadSlot, s, p.NumSlots())
	}
	if !p.slotInBounds(s) {
		return fmt.Errorf("%w: slot %d directory entry past page end", ErrCorruptPage, s)
	}
	off, length := p.slotOffLen(s)
	if off == 0 {
		return fmt.Errorf("%w: slot %d", ErrDeadSlot, s)
	}
	p.setSlot(s, 0, 0)
	binary.LittleEndian.PutUint16(p.buf[offLiveData:], uint16(p.liveData()-length))
	return nil
}

// Resize makes the record in slot s n bytes long and returns it, for
// the caller to overwrite: in place when n is its length, otherwise
// re-placed, possibly after compaction, with unspecified contents. On
// error the page is unchanged.
func (p *Page) Resize(s SlotID, n int) ([]byte, error) {
	off, length, err := p.Span(s)
	if err != nil {
		return nil, err
	}
	if !p.headerSane() {
		return nil, fmt.Errorf("%w: free end %d of %d", ErrCorruptPage, p.freeEnd(), len(p.buf))
	}
	if n == length {
		return p.buf[off : off+n], nil
	}
	if n < 0 || n > MaxRecordSize(len(p.buf)) {
		return nil, fmt.Errorf("%w: %d bytes", ErrRecordSize, n)
	}
	// Check fit before mutating anything, so a failed update leaves
	// the old record intact: after compaction, the reusable space is
	// everything but the header, the slot directory, and the *other*
	// live records.
	avail := len(p.buf) - HeaderSize - p.NumSlots()*SlotSize - (p.liveData() - length)
	if n > avail {
		return nil, ErrPageFull
	}
	// Delete then re-insert into the same slot.
	p.setSlot(s, 0, 0)
	binary.LittleEndian.PutUint16(p.buf[offLiveData:], uint16(p.liveData()-length))
	if p.freeEnd()-(HeaderSize+p.NumSlots()*SlotSize) < n {
		p.compact()
	}
	newEnd := p.freeEnd() - n
	binary.LittleEndian.PutUint16(p.buf[offFreeEnd:], uint16(newEnd))
	binary.LittleEndian.PutUint16(p.buf[offLiveData:], uint16(p.liveData()+n))
	p.setSlot(s, newEnd, n)
	return p.buf[newEnd : newEnd+n], nil
}

// compact rewrites live records contiguously at the end of the page,
// squeezing out holes left by deletes and updates.
func (p *Page) compact() {
	type rec struct {
		slot SlotID
		data []byte
	}
	var live []rec
	// room is what the record area can hold; slots of a corrupt page may
	// overlap and claim more, and relocating them all would run the
	// write cursor below zero.
	room := len(p.buf) - HeaderSize - p.NumSlots()*SlotSize
	for s := 0; s < p.NumSlots() && p.slotInBounds(SlotID(s)); s++ {
		off, length := p.slotOffLen(SlotID(s))
		if off < HeaderSize || off+length > len(p.buf) || length > room {
			// Dead (off==0) or corrupt; either way there is nothing
			// safe to relocate.
			continue
		}
		room -= length
		cp := make([]byte, length)
		copy(cp, p.buf[off:off+length])
		live = append(live, rec{SlotID(s), cp})
	}
	end := len(p.buf)
	for _, r := range live {
		end -= len(r.data)
		copy(p.buf[end:], r.data)
		p.setSlot(r.slot, end, len(r.data))
	}
	binary.LittleEndian.PutUint16(p.buf[offFreeEnd:], uint16(end))
}

// Records calls fn for every live record in slot order, stopping early
// if fn returns false.
func (p *Page) Records(fn func(s SlotID, rec []byte) bool) {
	for s := 0; s < p.NumSlots() && p.slotInBounds(SlotID(s)); s++ {
		off, length := p.slotOffLen(SlotID(s))
		if off < HeaderSize || off+length > len(p.buf) {
			continue
		}
		if !fn(SlotID(s), p.buf[off:off+length]) {
			return
		}
	}
}

// LiveRecords counts the live records on the page.
func (p *Page) LiveRecords() int {
	n := 0
	p.Records(func(SlotID, []byte) bool { n++; return true })
	return n
}
