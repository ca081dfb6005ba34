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

// RecordSize returns the encoded size of an instance of the class.
func (c *Class) RecordSize() int { return headerSize + 4*c.NumInts + 8*c.NumRefs }

// IntIndex resolves an integer attribute name to its index, or -1.
func (c *Class) IntIndex(name string) int {
	for i, n := range c.IntNames {
		if n == name {
			return i
		}
	}
	return -1
}

// RefIndex resolves a reference field name to its index, or -1.
func (c *Class) RefIndex(name string) int {
	for i, n := range c.RefNames {
		if n == name {
			return i
		}
	}
	return -1
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

// ByID looks a class up by id; a nil catalog knows none.
func (cat *Catalog) ByID(id ClassID) (*Class, bool) {
	if cat == nil {
		return nil, false
	}
	c, ok := cat.byID[id]
	return c, ok
}

// ByName looks a class up by name.
func (cat *Catalog) ByName(name string) (*Class, bool) {
	c, ok := cat.byName[name]
	return c, ok
}

// Len reports the number of defined classes.
func (cat *Catalog) Len() int { return len(cat.byID) }

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
	if len(o.Ints) > 255 || len(o.Refs) > 255 {
		return nil, ErrFieldCount
	}
	buf := make([]byte, headerSize+4*len(o.Ints)+8*len(o.Refs))
	binary.LittleEndian.PutUint64(buf[0:], uint64(o.OID))
	binary.LittleEndian.PutUint16(buf[8:], uint16(o.Class))
	buf[10] = byte(len(o.Ints))
	buf[11] = byte(len(o.Refs))
	off := headerSize
	for _, v := range o.Ints {
		binary.LittleEndian.PutUint32(buf[off:], uint32(v))
		off += 4
	}
	for _, r := range o.Refs {
		binary.LittleEndian.PutUint64(buf[off:], uint64(r))
		off += 8
	}
	return buf, nil
}

// Decode parses a record into a fresh Object.
func Decode(rec []byte) (*Object, error) {
	o := new(Object)
	if err := DecodeInto(rec, o); err != nil {
		return nil, err
	}
	return o, nil
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
	return nil
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

// PeekClass reads just the class id from an encoded record.
func PeekClass(rec []byte) (ClassID, error) {
	if len(rec) < 10 {
		return 0, ErrShortRecord
	}
	return ClassID(binary.LittleEndian.Uint16(rec[8:])), nil
}
