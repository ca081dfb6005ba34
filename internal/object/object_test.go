package object

import (
	"errors"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

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

// TestDecodeAllocs pins Decode of the paper's benchmark object at one
// allocation: the Object and its fields' arrays are one Block, of the
// 144 bytes the three allocations it replaced took.
func TestDecodeAllocs(t *testing.T) {
	if n := unsafe.Sizeof(Block{}); n != 144 {
		t.Errorf("a block is %d bytes, want 144", n)
	}
	rec, err := Encode(&Object{OID: 5, Class: 1, Ints: []int32{1, 2, 3, 4}, Refs: []OID{6, 0, 0, 0, 0, 0, 0, 9}})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if o, err := Decode(rec); err != nil || o.Refs[7] != 9 {
			t.Fatalf("Decode = %+v, %v", o, err)
		}
	})
	if allocs != 1 {
		t.Errorf("Decode allocates %v times, want 1", allocs)
	}
}

// TestGetShapes runs Get and Decode over classes narrower than a block,
// the block's own (4/8) and wider ones (5/8, 4/9, 255/255, the general
// path): the fields come back exact, neither slice has spare capacity,
// an append to Ints or Refs writes over nothing else of the object, and
// an object changed in place round-trips through Update and Get.
func TestGetShapes(t *testing.T) {
	// 8 KB pages, so that the 3 076-byte record of 255/255 fits one.
	s := newStoreOn(t, disk.NewSim(8192, 0), NewMapLocator())
	shapes := [][2]int{{0, 0}, {2, 0}, {2, 2}, {4, 8}, {5, 8}, {4, 9}, {255, 255}}
	want := make([]*Object, len(shapes))
	for i, sh := range shapes {
		o := &Object{OID: OID(i + 1), Class: ClassID(10 + i), Ints: make([]int32, sh[0]), Refs: make([]OID, sh[1])}
		for k := range o.Ints {
			o.Ints[k] = int32(1000*i+k) - 1<<30
		}
		for k := range o.Refs {
			o.Refs[k] = OID(1<<40 + 1000*i + k)
		}
		if _, err := s.Put(o); err != nil {
			t.Fatalf("%d/%d: Put: %v", sh[0], sh[1], err)
		}
		want[i] = o
	}
	same := func(a, b *Object) bool {
		return a.OID == b.OID && a.Class == b.Class && slices.Equal(a.Ints, b.Ints) && slices.Equal(a.Refs, b.Refs)
	}
	for i, sh := range shapes {
		w := want[i]
		rec, _ := Encode(w)
		dec, err := Decode(rec)
		if err != nil {
			t.Fatalf("%d/%d: Decode: %v", sh[0], sh[1], err)
		}
		got, err := s.Get(w.OID)
		if err != nil {
			t.Fatalf("%d/%d: Get: %v", sh[0], sh[1], err)
		}
		for _, o := range []struct {
			name string
			o    *Object
		}{{"Decode", dec}, {"Get", got}} {
			name, o := o.name, o.o
			if !same(o, w) {
				t.Fatalf("%d/%d: %s = %+v, want %+v", sh[0], sh[1], name, o, w)
			}
			if cap(o.Ints) != len(o.Ints) || cap(o.Refs) != len(o.Refs) {
				t.Errorf("%d/%d: %s: Ints len %d cap %d, Refs len %d cap %d",
					sh[0], sh[1], name, len(o.Ints), cap(o.Ints), len(o.Refs), cap(o.Refs))
			}
			o.Ints, o.Refs = append(o.Ints, -7), append(o.Refs, 7)
			if !same(&Object{OID: o.OID, Class: o.Class, Ints: o.Ints[:len(w.Ints)], Refs: o.Refs[:len(w.Refs)]}, w) {
				t.Errorf("%d/%d: %s: appends changed the rest of the object: %+v", sh[0], sh[1], name, o)
			}
		}
		got, _ = s.Get(w.OID)
		if len(got.Ints) > 0 {
			got.Ints[len(got.Ints)-1]++
		}
		if len(got.Refs) > 0 {
			got.Refs[0] = 42
		}
		if err := s.Update(got); err != nil {
			t.Fatalf("%d/%d: Update: %v", sh[0], sh[1], err)
		}
		if back, err := s.Get(w.OID); err != nil || !same(back, got) {
			t.Errorf("%d/%d: after Update, Get = %+v, %v; want %+v", sh[0], sh[1], back, err, got)
		}
	}
}

func TestPeek(t *testing.T) {
	o := &Object{OID: 77, Class: 9}
	rec, _ := Encode(o)
	oid, err := PeekOID(rec)
	if err != nil || oid != 77 {
		t.Errorf("PeekOID = (%v, %v)", oid, err)
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
}

func newStore(t testing.TB, loc *MapLocator) *Store {
	t.Helper()
	return newStoreOn(t, disk.New(0), loc)
}

// newStoreOn is newStore over a device of the caller's page size.
func newStoreOn(t testing.TB, d *disk.Sim, loc *MapLocator) *Store {
	t.Helper()
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
