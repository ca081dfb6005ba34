package object

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzDecode hardens the record decoder against arbitrary bytes: it
// must never panic, any record it accepts must re-encode to an
// equivalent prefix of the input's logical content, and the
// Shape + DecodeInto pair must agree with Decode on every input.
func FuzzDecode(f *testing.F) {
	// Seed corpus: valid encodings and truncations.
	good, _ := Encode(&Object{OID: 7, Class: 3, Ints: []int32{1, -2}, Refs: []OID{9, 0}})
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := Decode(data)
		// Shape + DecodeInto accept and reject exactly what Decode does,
		// size nothing beyond the 255-field limit, fill caller-owned
		// slices with the same fields, and read nothing past the record:
		// rec has no spare capacity, so reading or reslicing beyond it
		// panics.
		rec := append(make([]byte, 0, len(data)), data...)
		nInts, nRefs, serr := Shape(rec)
		into := Object{Ints: make([]int32, 0, 255), Refs: make([]OID, 0, 255)}
		derr := DecodeInto(rec, &into)
		if (serr != nil) != (err != nil) || (derr != nil) != (err != nil) {
			t.Fatalf("Decode err %v, Shape err %v, DecodeInto err %v", err, serr, derr)
		}
		if err != nil {
			if len(into.Ints) != 0 || len(into.Refs) != 0 {
				t.Fatalf("rejected record touched the destination: %+v", into)
			}
			return
		}
		if nInts > 255 || nRefs > 255 || nInts != len(o.Ints) || nRefs != len(o.Refs) ||
			headerSize+4*nInts+8*nRefs > len(data) {
			t.Fatalf("Shape (%d, %d) of a %d-byte record; Decode has (%d, %d)", nInts, nRefs, len(data), len(o.Ints), len(o.Refs))
		}
		if into.OID != o.OID || into.Class != o.Class || !slices.Equal(into.Ints, o.Ints) || !slices.Equal(into.Refs, o.Refs) {
			t.Fatalf("DecodeInto %+v, Decode %+v", into, *o)
		}
		// Accepted records must round-trip.
		re, err := Encode(o)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if back.OID != o.OID || back.Class != o.Class ||
			len(back.Ints) != len(o.Ints) || len(back.Refs) != len(o.Refs) {
			t.Fatalf("round trip mismatch: %+v vs %+v", o, back)
		}
	})
}
