package page

import (
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"

	"revelation/internal/disk"
)

// TestStampSumMatchesTwoPasses: StampSum leaves every image exactly as
// Stamp does and returns exactly the CRC a second pass over the stamped
// image would — at the table's size (one pass) and at every other
// length (the two passes themselves), random bytes and random running
// CRCs, sizes either side of the header.
func TestStampSumMatchesTwoPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{0, 1, 27, 28, 29, 31, HeaderSize, 33, 100, 128, 512, 1000, 1024, 4096} {
		s := NewStamper(size)
		for _, n := range []int{size, size + 1, size / 2, HeaderSize, 7, 0} {
			for round := 0; round < 20; round++ {
				img := make([]byte, n)
				rng.Read(img)
				want := append([]byte(nil), img...)
				crc := rng.Uint32()
				if round == 0 {
					crc = 0
				}
				got := s.StampSum(crc, img)
				Stamp(want)
				if string(img) != string(want) {
					t.Fatalf("size %d, image of %d: stamped bytes differ", size, n)
				}
				if w := crc32.Update(crc, castagnoli, want); got != w {
					t.Fatalf("size %d, image of %d, crc %08x: StampSum %08x, two passes %08x", size, n, crc, got, w)
				}
			}
		}
	}
}

// TestVerifyDeviceValidatesSlottedPages: VerifyDevice reports a page
// whose checksum holds but whose slot points past the data area, beside
// a torn page, and passes a sound page and a never-written one (1).
func TestVerifyDeviceValidatesSlottedPages(t *testing.T) {
	const size = 256
	dev := disk.NewSim(size, 4)
	write := func(id disk.PageID, finish func(p *Page)) {
		p := Wrap(make([]byte, size))
		p.Init(1)
		if _, err := p.Insert([]byte("a record")); err != nil {
			t.Fatal(err)
		}
		finish(p)
		if err := dev.WritePage(id, p.buf); err != nil {
			t.Fatal(err)
		}
	}
	write(0, (*Page).Stamp)
	write(2, func(p *Page) { p.setSlot(0, size-4, 8); p.Stamp() }) // the record runs 4 bytes past the page
	write(3, func(p *Page) { p.Stamp(); p.buf[size-1] ^= 0xff })   // torn after stamping
	if bad, err := VerifyDevice(dev); err != nil || !slices.Equal(bad, []disk.PageID{2, 3}) {
		t.Errorf("VerifyDevice = %v, %v; want pages 2 (slot past the data area) and 3 (torn)", bad, err)
	}
}
