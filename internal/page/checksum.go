package page

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"

	"revelation/internal/disk"
)

// ErrChecksum marks a page image whose stored checksum does not match
// its contents — a torn write, bit rot, or a stray overwrite. A page
// that fails verification must never be interpreted; recovery (package
// wal) restores it from a logged image instead.
var ErrChecksum = errors.New("page: checksum mismatch")

// castagnoli is the CRC-32C polynomial table. CRC-32C is the standard
// storage checksum (iSCSI, ext4, Btrfs) and is hardware-accelerated on
// amd64 and arm64, so stamping a 1 KB page costs well under a
// microsecond.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// zeroField stands in for the checksum field while summing, so the
// stored value never feeds its own computation.
var zeroField [checksumLen]byte

const checksumLen = 4

// Sum computes the image's checksum: CRC-32C over the whole page with
// the checksum field itself treated as zero. Images shorter than the
// header are summed as-is (they can never verify as pages).
func Sum(buf []byte) uint32 {
	if len(buf) < HeaderSize {
		return crc32.Update(0, castagnoli, buf)
	}
	crc := crc32.Update(0, castagnoli, buf[:offChecksum])
	crc = crc32.Update(crc, castagnoli, zeroField[:])
	return crc32.Update(crc, castagnoli, buf[tailStart:])
}

// StoredChecksum reads the checksum recorded in the image's header.
func StoredChecksum(buf []byte) uint32 {
	if len(buf) < HeaderSize {
		return 0
	}
	return binary.LittleEndian.Uint32(buf[offChecksum:])
}

// Stamp records the image's current checksum in its header. The buffer
// pool stamps every page on its way to the device; the WAL stamps every
// image it logs.
func Stamp(buf []byte) {
	if len(buf) < HeaderSize {
		return
	}
	binary.LittleEndian.PutUint32(buf[offChecksum:], Sum(buf))
}

// Stamper stamps images of one fixed length and, in the same pass over
// their bytes, continues a caller's CRC-32C across them — the WAL's
// record checksum, which covers its header and then the stamped image.
//
// CRC-32C is affine: the register after a prefix and then a tail T is
// M^|T|·(register after the prefix) ⊕ (register after T alone from
// zero), where M^|T| is the linear map "feed |T| zero bytes". The page
// checksum and the caller's CRC differ only in the bytes up to the end
// of the checksum field, so the tail after it is summed once, from
// zero, and each of the two short prefixes is carried across it by
// shift, M^|T| tabulated a byte of register at a time.
type Stamper struct {
	size  int
	shift [4][256]uint32
}

// tailStart is where the bytes both sums read begin.
const tailStart = offChecksum + checksumLen

// NewStamper builds the shift table for images of size bytes. A size
// below HeaderSize gets no table: every image then takes the two-pass
// path, as images of any other length always do.
func NewStamper(size int) *Stamper {
	s := &Stamper{size: size}
	if size < HeaderSize {
		return s
	}
	// The register after the zero tail from a single set bit:
	// crc32.Update inverts on the way in and out, so it is fed the bit
	// inverted and its answer is inverted back.
	zeros := make([]byte, size-tailStart)
	var bit [32]uint32
	for i := range bit {
		bit[i] = ^crc32.Update(^(uint32(1) << i), castagnoli, zeros)
	}
	for j := range s.shift {
		for b := 1; b < 256; b++ {
			low := b & -b // the lowest set bit; the rest is an earlier entry
			s.shift[j][b] = s.shift[j][b&^low] ^ bit[8*j+bits.TrailingZeros(uint(low))]
		}
	}
	return s
}

// advance carries a register across the tail's length of zero bytes.
func (s *Stamper) advance(reg uint32) uint32 {
	return s.shift[0][reg&0xff] ^ s.shift[1][reg>>8&0xff] ^
		s.shift[2][reg>>16&0xff] ^ s.shift[3][reg>>24]
}

// StampSum stamps img exactly as Stamp does and returns
// crc32.Update(crc, Castagnoli, img) over the stamped image, reading
// the bytes after the checksum field once rather than twice.
func (s *Stamper) StampSum(crc uint32, img []byte) uint32 {
	if len(img) != s.size || s.size < HeaderSize {
		Stamp(img)
		return crc32.Update(crc, castagnoli, img)
	}
	tail := ^crc32.Update(^uint32(0), castagnoli, img[tailStart:])
	sum := crc32.Update(0, castagnoli, img[:offChecksum])
	sum = crc32.Update(sum, castagnoli, zeroField[:])
	binary.LittleEndian.PutUint32(img[offChecksum:], ^(s.advance(^sum) ^ tail))
	crc = crc32.Update(crc, castagnoli, img[:tailStart])
	return ^(s.advance(^crc) ^ tail)
}

// ZeroImage reports whether the image is entirely zero bytes: a page
// that was allocated but never written. Such pages verify vacuously —
// they hold no data to misread.
func ZeroImage(buf []byte) bool {
	for _, b := range buf {
		if b != 0 {
			return false
		}
	}
	return true
}

// Verify checks the image against its stored checksum. All-zero images
// (allocated, never written) pass; anything else must match exactly.
// The error wraps ErrChecksum so callers classify with errors.Is.
func Verify(buf []byte) error {
	if len(buf) < HeaderSize {
		return fmt.Errorf("%w: image of %d bytes", ErrCorruptPage, len(buf))
	}
	stored := StoredChecksum(buf)
	if stored == 0 && ZeroImage(buf) {
		return nil
	}
	if sum := Sum(buf); sum != stored {
		return fmt.Errorf("%w: stored %08x, computed %08x", ErrChecksum, stored, sum)
	}
	return nil
}

// Stamp records the page's current checksum in its header.
func (p *Page) Stamp() { Stamp(p.buf) }

// VerifyDevice scans every page of dev and returns the ids that fail:
// a page whose stored checksum does not match its contents, and a
// written page whose checksum holds but whose header or slot directory
// Validate refuses (a record past the page's end, say, written so by a
// bug rather than torn by a crash). A never-written, all-zero page
// passes. A non-nil error reports an I/O failure, not a bad page; the
// returned slice is valid either way for the pages scanned so far.
func VerifyDevice(dev disk.Device) ([]disk.PageID, error) {
	buf := make([]byte, dev.PageSize())
	var bad []disk.PageID
	for i := 0; i < dev.NumPages(); i++ {
		id := disk.PageID(i)
		if err := dev.ReadPage(id, buf); err != nil {
			return bad, fmt.Errorf("page: verify device: %w", err)
		}
		if Verify(buf) != nil || !ZeroImage(buf) && Wrap(buf).Validate() != nil {
			bad = append(bad, id)
		}
	}
	return bad, nil
}
