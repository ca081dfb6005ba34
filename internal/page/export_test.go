package page

// Test-only exports: code that only this package's tests use lives here,
// out of the build.

import (
	"encoding/binary"
	"fmt"
)

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

// LiveRecords counts the live records on the page.
func (p *Page) LiveRecords() int {
	n := 0
	p.Records(func(SlotID, []byte) bool { n++; return true })
	return n
}
