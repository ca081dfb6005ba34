package object

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"revelation/internal/buffer"
	"revelation/internal/disk"
	"revelation/internal/heap"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	o := &Object{
		OID:   42,
		Class: 7,
		Ints:  []int32{1, -2, 3, 2147483647},
		Refs:  []OID{NilOID, 99, 100, 101, 0, 0, 0, 12345},
	}
	rec, err := Encode(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != 96 {
		t.Errorf("benchmark object encodes to %d bytes, want 96", len(rec))
	}
	got, err := Decode(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got.OID != o.OID || got.Class != o.Class {
		t.Errorf("header mismatch: %+v", got)
	}
	for i := range o.Ints {
		if got.Ints[i] != o.Ints[i] {
			t.Errorf("Ints[%d] = %d, want %d", i, got.Ints[i], o.Ints[i])
		}
	}
	for i := range o.Refs {
		if got.Refs[i] != o.Refs[i] {
			t.Errorf("Refs[%d] = %v, want %v", i, got.Refs[i], o.Refs[i])
		}
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(oid uint64, class uint16, ints []int32, rawRefs []uint64) bool {
		if oid == 0 {
			oid = 1
		}
		if len(ints) > 255 {
			ints = ints[:255]
		}
		if len(rawRefs) > 255 {
			rawRefs = rawRefs[:255]
		}
		refs := make([]OID, len(rawRefs))
		for i, r := range rawRefs {
			refs[i] = OID(r)
		}
		o := &Object{OID: OID(oid), Class: ClassID(class), Ints: ints, Refs: refs}
		rec, err := Encode(o)
		if err != nil {
			return false
		}
		got, err := Decode(rec)
		if err != nil {
			return false
		}
		if got.OID != o.OID || got.Class != o.Class || len(got.Ints) != len(ints) || len(got.Refs) != len(refs) {
			return false
		}
		for i := range ints {
			if got.Ints[i] != ints[i] {
				return false
			}
		}
		for i := range refs {
			if got.Refs[i] != refs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecodeShortRecord(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); !errors.Is(err, ErrShortRecord) {
		t.Errorf("Decode short err = %v, want ErrShortRecord", err)
	}
	// Header claims more fields than bytes provide.
	o := &Object{OID: 1, Ints: []int32{1, 2}, Refs: []OID{3}}
	rec, _ := Encode(o)
	if _, err := Decode(rec[:len(rec)-4]); !errors.Is(err, ErrShortRecord) {
		t.Errorf("Decode truncated err = %v, want ErrShortRecord", err)
	}
}

// Shape + DecodeInto, the pair Decode is built on: short, truncated and
// zero-field records; caller-owned slices are filled in place when they
// have the room and replaced when they do not; a rejected record leaves
// the destination untouched.
func TestShapeDecodeInto(t *testing.T) {
	full, _ := Encode(&Object{OID: 5, Class: 2, Ints: []int32{-1, 7}, Refs: []OID{9, 0, 11}})
	empty, _ := Encode(&Object{OID: 6, Class: 3})
	for _, c := range []struct {
		name         string
		rec          []byte
		nInts, nRefs int
		bad          bool
	}{
		{"nil", nil, 0, 0, true},
		{"short header", full[:headerSize-1], 0, 0, true},
		{"header only, fields claimed", full[:headerSize], 0, 0, true},
		{"truncated by one byte", full[:len(full)-1], 0, 0, true},
		{"zero fields", empty, 0, 0, false},
		{"full", full, 2, 3, false},
		{"trailing bytes ignored", append(append([]byte(nil), full...), 0xEE, 0xEE), 2, 3, false},
	} {
		nInts, nRefs, err := Shape(c.rec)
		_, derr := Decode(c.rec)
		if (err != nil) != c.bad || (derr != nil) != c.bad {
			t.Errorf("%s: Shape err %v, Decode err %v, want rejection %v", c.name, err, derr, c.bad)
			continue
		}
		into := Object{OID: 99, Ints: make([]int32, 1, 8), Refs: make([]OID, 1, 8)}
		ints, refs := into.Ints, into.Refs
		err = DecodeInto(c.rec, &into)
		if c.bad {
			if !errors.Is(err, ErrShortRecord) || into.OID != 99 || len(into.Ints) != 1 || len(into.Refs) != 1 {
				t.Errorf("%s: DecodeInto err %v, destination %+v", c.name, err, into)
			}
			continue
		}
		want, _ := Decode(c.rec)
		if err != nil || nInts != c.nInts || nRefs != c.nRefs || !reflect.DeepEqual(&into, want) {
			t.Errorf("%s: Shape (%d, %d), DecodeInto %+v (%v), Decode %+v", c.name, nInts, nRefs, into, err, want)
		}
		if &into.Ints[:1][0] != &ints[0] || &into.Refs[:1][0] != &refs[0] {
			t.Errorf("%s: roomy slices were not filled in place", c.name)
		}
	}
	// Too little room: fresh slices, the caller's left alone.
	tight := Object{Ints: make([]int32, 0, 1), Refs: make([]OID, 0, 2)}
	ints, refs := tight.Ints[:1], tight.Refs[:2]
	if err := DecodeInto(full, &tight); err != nil || len(tight.Ints) != 2 || len(tight.Refs) != 3 {
		t.Fatalf("DecodeInto with tight slices: %+v, %v", tight, err)
	}
	if ints[0] != 0 || refs[0] != 0 || refs[1] != 0 {
		t.Error("DecodeInto wrote through slices that were too short")
	}
}

func TestPeek(t *testing.T) {
	o := &Object{OID: 77, Class: 9}
	rec, _ := Encode(o)
	oid, err := PeekOID(rec)
	if err != nil || oid != 77 {
		t.Errorf("PeekOID = (%v, %v)", oid, err)
	}
	cls, err := PeekClass(rec)
	if err != nil || cls != 9 {
		t.Errorf("PeekClass = (%v, %v)", cls, err)
	}
	if _, err := PeekOID(nil); !errors.Is(err, ErrShortRecord) {
		t.Errorf("PeekOID(nil) err = %v", err)
	}
}

func TestCatalog(t *testing.T) {
	cat := NewCatalog()
	person, err := cat.Define(&Class{
		Name:     "Person",
		NumInts:  2,
		NumRefs:  2,
		IntNames: []string{"age", "zip"},
		RefNames: []string{"father", "residence"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if person.ID == 0 {
		t.Error("class id not assigned")
	}
	if _, err := cat.Define(&Class{Name: "Person"}); err == nil {
		t.Error("duplicate class name accepted")
	}
	if _, err := cat.Define(&Class{Name: "", NumInts: 1}); err == nil {
		t.Error("empty class name accepted")
	}
	if _, err := cat.Define(&Class{Name: "Bad", NumInts: 2, IntNames: []string{"x"}}); err == nil {
		t.Error("mismatched int names accepted")
	}
	got, ok := cat.ByName("Person")
	if !ok || got != person {
		t.Error("ByName lookup failed")
	}
	got, ok = cat.ByID(person.ID)
	if !ok || got != person {
		t.Error("ByID lookup failed")
	}
	if person.IntIndex("zip") != 1 || person.IntIndex("nope") != -1 {
		t.Error("IntIndex wrong")
	}
	if person.RefIndex("father") != 0 || person.RefIndex("nope") != -1 {
		t.Error("RefIndex wrong")
	}
	if person.RecordSize() != 16+8+16 {
		t.Errorf("RecordSize = %d", person.RecordSize())
	}
	if cat.Len() != 1 {
		t.Errorf("Len = %d", cat.Len())
	}
}

func newStore(t *testing.T, loc Locator) *Store {
	t.Helper()
	d := disk.New(0)
	pool := buffer.New(d, 32)
	f, err := heap.Create(pool, 8)
	if err != nil {
		t.Fatal(err)
	}
	return NewStore(f, loc, NewCatalog())
}

func TestStoreWithMapLocator(t *testing.T) {
	s := newStore(t, NewMapLocator())
	o := &Object{OID: 5, Class: 1, Ints: []int32{10}, Refs: []OID{6}}
	rid, err := s.Put(o)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(5)
	if err != nil {
		t.Fatal(err)
	}
	if got.OID != 5 || got.Ints[0] != 10 || got.Refs[0] != 6 {
		t.Errorf("Get = %+v", got)
	}
	where, ok, err := s.WhereIs(5)
	if err != nil || !ok || where != rid {
		t.Errorf("WhereIs = (%v,%v,%v), want %v", where, ok, err, rid)
	}
	if _, err := s.Get(999); err == nil {
		t.Error("Get missing OID succeeded")
	}
}

func TestPutAtPlacement(t *testing.T) {
	s := newStore(t, NewMapLocator())
	o := &Object{OID: 1, Class: 1}
	rid, err := s.PutAt(o, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := s.File.PageAt(3)
	if rid.Page != want {
		t.Errorf("PutAt page = %d, want %d", rid.Page, want)
	}
}

func TestNilOIDRejected(t *testing.T) {
	s := newStore(t, NewMapLocator())
	if _, err := s.Put(&Object{OID: NilOID}); !errors.Is(err, ErrNilOID) {
		t.Errorf("Put nil-OID err = %v, want ErrNilOID", err)
	}
	loc := NewMapLocator()
	if _, _, err := loc.Lookup(NilOID); !errors.Is(err, ErrNilOID) {
		t.Errorf("Lookup nil err = %v", err)
	}
	if err := loc.Register(NilOID, heap.RID{}); !errors.Is(err, ErrNilOID) {
		t.Errorf("Register nil err = %v", err)
	}
}
