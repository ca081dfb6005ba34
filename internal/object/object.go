// Package object defines the storage-layer object model of the
// reproduction: objects carry integer attributes and inter-object
// references (OIDs embedded in their state, exactly as Revelation types
// do), a class catalog describing their shape, a compact binary record
// encoding, and the OID → physical-address mapping the assembly
// operator requires.
//
// The benchmark geometry from Section 6 of the paper falls out of the
// encoding: an object with 4 integer and 8 reference fields occupies
// 96 bytes, so nine objects share a 1 KB page.
package object

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// OID is an object identifier. Zero is the nil reference.
type OID uint64

// NilOID is the null object reference.
const NilOID OID = 0

// IsNil reports whether the OID is the null reference.
func (o OID) IsNil() bool { return o == NilOID }

func (o OID) String() string { return fmt.Sprintf("oid:%d", uint64(o)) }

// ClassID identifies a class in the catalog.
type ClassID uint16

// Class describes the shape of a storage-layer object: how many
// integer attributes and how many reference fields it has. RefTargets
// optionally names the class each reference field points to (used by
// templates and the generator); a zero entry means "any class".
type Class struct {
	ID         ClassID
	Name       string
	NumInts    int
	NumRefs    int
	IntNames   []string  // optional, len NumInts when present
	RefNames   []string  // optional, len NumRefs when present
	RefTargets []ClassID // optional, len NumRefs when present
}

// Catalog is the class registry.
type Catalog struct {
	byID   map[ClassID]*Class
	byName map[string]*Class
	nextID ClassID
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		byID:   make(map[ClassID]*Class),
		byName: make(map[string]*Class),
		nextID: 1,
	}
}

// Define registers a class, assigning it the next free id. It fails on
// a duplicate name or malformed field-name slices.
func (cat *Catalog) Define(c *Class) (*Class, error) {
	if c.Name == "" {
		return nil, errors.New("object: class needs a name")
	}
	if _, dup := cat.byName[c.Name]; dup {
		return nil, fmt.Errorf("object: class %q already defined", c.Name)
	}
	if c.IntNames != nil && len(c.IntNames) != c.NumInts {
		return nil, fmt.Errorf("object: class %q has %d int names for %d ints", c.Name, len(c.IntNames), c.NumInts)
	}
	if c.RefNames != nil && len(c.RefNames) != c.NumRefs {
		return nil, fmt.Errorf("object: class %q has %d ref names for %d refs", c.Name, len(c.RefNames), c.NumRefs)
	}
	if c.RefTargets != nil && len(c.RefTargets) != c.NumRefs {
		return nil, fmt.Errorf("object: class %q has %d ref targets for %d refs", c.Name, len(c.RefTargets), c.NumRefs)
	}
	c.ID = cat.nextID
	cat.nextID++
	cat.byID[c.ID] = c
	cat.byName[c.Name] = c
	return c, nil
}

// MustDefine is Define that panics on error; for static schemas.
func (cat *Catalog) MustDefine(c *Class) *Class {
	out, err := cat.Define(c)
	if err != nil {
		panic(err)
	}
	return out
}

// ByID looks a class up by id.
func (cat *Catalog) ByID(id ClassID) (*Class, bool) {
	c, ok := cat.byID[id]
	return c, ok
}

// ByName looks a class up by name.
func (cat *Catalog) ByName(name string) (*Class, bool) {
	c, ok := cat.byName[name]
	return c, ok
}

// Object is an in-memory storage-layer object.
type Object struct {
	OID   OID
	Class ClassID
	Ints  []int32
	Refs  []OID
}

// Record encoding:
//
//	[0:8)   OID
//	[8:10)  class id
//	[10:11) number of int fields
//	[11:12) number of ref fields
//	[12:16) flags / reserved
//	then NumInts * int32, then NumRefs * OID(u64), little endian.
const headerSize = 16

// Encoding errors.
var (
	ErrShortRecord = errors.New("object: record too short")
	ErrFieldCount  = errors.New("object: field count exceeds encoding limit")
)

// Encode serializes the object into a fresh record.
func Encode(o *Object) ([]byte, error) {
	n, err := recordLen(o)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	encodeInto(buf, o)
	return buf, nil
}

// recordLen is the length of o's record, or ErrFieldCount when o has
// more fields than the header can count.
func recordLen(o *Object) (int, error) {
	if len(o.Ints) > 255 || len(o.Refs) > 255 {
		return 0, ErrFieldCount
	}
	return headerSize + 4*len(o.Ints) + 8*len(o.Refs), nil
}

// encodeInto writes o's record over rec, which is recordLen(o) bytes
// long; the reserved header bytes are zeroed.
func encodeInto(rec []byte, o *Object) {
	binary.LittleEndian.PutUint64(rec[0:], uint64(o.OID))
	binary.LittleEndian.PutUint16(rec[8:], uint16(o.Class))
	rec[10] = byte(len(o.Ints))
	rec[11] = byte(len(o.Refs))
	clear(rec[12:headerSize])
	off := headerSize
	for _, v := range o.Ints {
		binary.LittleEndian.PutUint32(rec[off:], uint32(v))
		off += 4
	}
	for _, r := range o.Refs {
		binary.LittleEndian.PutUint64(rec[off:], uint64(r))
		off += 8
	}
}

// Decode parses a record into a fresh Block's Object: one allocation
// for a class that fits the block, and DecodeInto's slices besides for
// a wider one.
func Decode(rec []byte) (*Object, error) {
	nInts, nRefs, err := Shape(rec)
	if err != nil {
		return nil, err
	}
	b := new(Block)
	b.Fields(nInts, nRefs)
	fill(rec, &b.Object, nInts, nRefs)
	return &b.Object, nil
}

// Block is an Object and the backing arrays of its fields side by side,
// 144 bytes (64 for the Object, 16 and 64 for the arrays), wide enough
// for the paper's benchmark object: 4 integer and 8 reference fields.
type Block struct {
	Object
	ints [4]int32
	refs [8]OID
}

// Fields readies b for DecodeInto. A class that fits gets Ints and Refs
// sliced from b's arrays with no spare capacity, so an append to one
// moves it off the block rather than over the other; a wider class gets
// nil fields, which DecodeInto makes.
func (b *Block) Fields(nInts, nRefs int) {
	if nInts <= len(b.ints) && nRefs <= len(b.refs) {
		b.Ints, b.Refs = b.ints[:nInts:nInts], b.refs[:nRefs:nRefs]
	} else {
		b.Ints, b.Refs = nil, nil
	}
}

// Shape validates a record's header and length and reports how many
// integer and reference fields it carries (at most 255 each), so that a
// caller can size o.Ints and o.Refs before DecodeInto.
func Shape(rec []byte) (nInts, nRefs int, err error) {
	if len(rec) < headerSize {
		return 0, 0, fmt.Errorf("%w: %d bytes", ErrShortRecord, len(rec))
	}
	nInts, nRefs = int(rec[10]), int(rec[11])
	if want := headerSize + 4*nInts + 8*nRefs; len(rec) < want {
		return 0, 0, fmt.Errorf("%w: %d bytes, header implies %d", ErrShortRecord, len(rec), want)
	}
	return nInts, nRefs, nil
}

// DecodeInto parses a record into o. It fills o.Ints and o.Refs in
// place when they are non-nil and have the capacity Shape reports, and
// allocates them otherwise; on error o is untouched.
func DecodeInto(rec []byte, o *Object) error {
	nInts, nRefs, err := Shape(rec)
	if err != nil {
		return err
	}
	fill(rec, o, nInts, nRefs)
	return nil
}

// fill is DecodeInto of a record Shape has accepted as (nInts, nRefs).
func fill(rec []byte, o *Object, nInts, nRefs int) {
	o.OID = OID(binary.LittleEndian.Uint64(rec[0:]))
	o.Class = ClassID(binary.LittleEndian.Uint16(rec[8:]))
	o.Ints = sized(o.Ints, nInts)
	o.Refs = sized(o.Refs, nRefs)
	off := headerSize
	for i := range o.Ints {
		o.Ints[i] = int32(binary.LittleEndian.Uint32(rec[off:]))
		off += 4
	}
	for i := range o.Refs {
		o.Refs[i] = OID(binary.LittleEndian.Uint64(rec[off:]))
		off += 8
	}
}

// sized reslices s to n elements when it has the room and makes a fresh
// slice otherwise.
func sized[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// PeekOID reads just the OID from an encoded record.
func PeekOID(rec []byte) (OID, error) {
	if len(rec) < 8 {
		return NilOID, ErrShortRecord
	}
	return OID(binary.LittleEndian.Uint64(rec)), nil
}
