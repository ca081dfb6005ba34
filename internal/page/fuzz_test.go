package page

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzPageOps drives a slotted page with an arbitrary operation tape:
// whatever the sequence, the page must not panic and every live record
// must read back exactly as written. One of the ops corrupts a raw byte
// of the page image — modeling a torn or bit-flipped page slipping past
// the checksum layer — after which content guarantees are off but the
// memory-safety guarantee stands: every accessor must return an error
// (or garbage bytes) rather than panic or index out of bounds.
func FuzzPageOps(f *testing.F) {
	f.Add([]byte{0, 10, 1, 0, 0, 30, 2, 1})
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0, 100}, 30))
	// Corrupt the header early, then keep operating.
	f.Add([]byte{0, 40, 3, 0, 0, 20, 1, 0, 2, 9})
	f.Add([]byte{0, 40, 3, 2, 3, 5, 0, 8})
	f.Fuzz(func(t *testing.T, tape []byte) {
		buf := make([]byte, 512)
		p := Wrap(buf)
		p.Init(1)
		live := map[SlotID]byte{}
		var order []SlotID
		corrupted := false
		for i := 0; i+1 < len(tape); i += 2 {
			op, arg := tape[i], tape[i+1]
			switch op % 4 {
			case 0: // insert a record of arg%120 bytes filled with arg
				rec := bytes.Repeat([]byte{arg}, int(arg)%120)
				s, err := p.Insert(rec)
				if err != nil {
					continue
				}
				live[s] = arg
				order = append(order, s)
			case 1: // delete an existing slot (if any)
				if len(order) == 0 {
					continue
				}
				s := order[int(arg)%len(order)]
				if _, ok := live[s]; !ok {
					continue
				}
				if err := p.Delete(s); err != nil {
					if corrupted {
						continue
					}
					t.Fatalf("delete live slot %d: %v", s, err)
				}
				delete(live, s)
			case 2: // update an existing slot
				if len(order) == 0 {
					continue
				}
				s := order[int(arg)%len(order)]
				if _, ok := live[s]; !ok {
					continue
				}
				rec := bytes.Repeat([]byte{arg ^ 0x5A}, int(arg)%90)
				if err := update(p, s, rec); err != nil {
					if corrupted || errors.Is(err, ErrPageFull) {
						continue
					}
					t.Fatalf("update: %v", err)
				}
				live[s] = arg ^ 0x5A
			case 3: // corrupt one byte of the raw image
				// Spread positions over the whole page but bias toward
				// the header and slot directory, where corruption is
				// most likely to confuse bounds arithmetic.
				pos := int(arg)
				if arg%2 == 0 {
					pos = int(arg) * len(buf) / 256
				}
				if pos >= len(buf) {
					pos = len(buf) - 1
				}
				buf[pos] ^= 0x80 | arg
				corrupted = true
			}
			// Exercise the read paths against whatever state the tape
			// produced; on a corrupted page these may error but must
			// not panic or read out of bounds.
			if corrupted {
				p.Validate()
				p.Records(func(SlotID, []byte) bool { return true })
				for s := range live {
					p.Get(s)
				}
			}
		}
		if corrupted {
			// Content assertions are meaningless once the image has
			// been tampered with; surviving without a panic is the
			// whole contract.
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("uncorrupted page fails Validate: %v", err)
		}
		// Validate every live record.
		n := 0
		for s, fill := range live {
			rec, err := p.Get(s)
			if err != nil {
				t.Fatalf("get live slot %d: %v", s, err)
			}
			for _, b := range rec {
				if b != fill {
					t.Fatalf("slot %d corrupted: %d != %d", s, b, fill)
				}
			}
			n++
		}
		if p.LiveRecords() != n {
			t.Fatalf("LiveRecords = %d, want %d", p.LiveRecords(), n)
		}
	})
}
