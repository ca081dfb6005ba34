package buffer

import (
	"math/bits"

	"revelation/internal/disk"
)

// The page table: which frame holds a resident page. Every Fix asks it,
// every miss adds an entry and, once the pool is full, removes one, so
// it is an array the pool owns rather than a Go map: open addressing
// over a power-of-two number of slots, at least twice the frames, sized
// once at New. A page's home slot is a multiplicative hash of its id; a
// collision walks on to the next slot (linear probing), and a deletion
// shifts the entries behind it back over the hole, so there are no
// tombstones and a lookup's walk ends at the first empty slot. At most
// half the slots are ever taken — there are no more resident pages than
// frames — so the table never grows and never rehashes, and its memory
// is O(frames) whatever the size of the device.
//
// A slot is eight bytes, the page id and the number of the frame in
// Pool.frames, which is one array: a probe reads the slots only, eight
// to a cache line, and the frame is an index away (the layouts tried
// are in EXPERIMENTS.md).

// tableSlot is one slot of the page table.
type tableSlot struct {
	id    disk.PageID
	frame uint32 // index in Pool.frames, plus one; zero in an empty slot
}

// pageTable maps the ids of resident pages to the frames holding them.
type pageTable struct {
	slots []tableSlot
	shift uint8 // 32 - log2(len(slots)): the hash keeps its top bits
}

func newPageTable(frames int) pageTable {
	size := 2
	for size < 2*frames {
		size *= 2
	}
	return pageTable{slots: make([]tableSlot, size), shift: uint8(32 - bits.TrailingZeros(uint(size)))}
}

// home is the slot a page's probe starts at (Fibonacci hashing: ids that
// differ in their low bits, as the pages of one extent do, spread over
// the whole table).
func (t *pageTable) home(id disk.PageID) int {
	return int(uint32(id) * 2654435769 >> t.shift)
}

// get returns the index of the frame holding page id, or -1.
func (t *pageTable) get(id disk.PageID) int {
	mask := len(t.slots) - 1
	for i := t.home(id); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s.frame == 0 || s.id == id {
			return int(s.frame) - 1
		}
	}
}

// put records that the frame at index frame holds page id, which must
// not be in the table.
func (t *pageTable) put(id disk.PageID, frame int) {
	mask := len(t.slots) - 1
	i := t.home(id)
	for t.slots[i].frame != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = tableSlot{id, uint32(frame) + 1}
}

// del removes page id, if it is in the table, and closes the hole: each
// entry of the cluster behind it moves back into the hole unless its
// home lies between the hole and itself, where a probe for it would no
// longer pass the hole.
func (t *pageTable) del(id disk.PageID) {
	mask := len(t.slots) - 1
	hole := t.home(id)
	for t.slots[hole].frame != 0 && t.slots[hole].id != id {
		hole = (hole + 1) & mask
	}
	if t.slots[hole].frame == 0 {
		return
	}
	for j := (hole + 1) & mask; t.slots[j].frame != 0; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].id))&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = tableSlot{}
}

// resident returns the frame holding page id, or nil. Caller holds mu.
func (p *Pool) resident(id disk.PageID) *Frame {
	if i := p.table.get(id); i >= 0 {
		return &p.frames[i]
	}
	return nil
}
