package object

import (
	"errors"
	"fmt"

	"revelation/internal/btree"
	"revelation/internal/disk"
	"revelation/internal/heap"
	"revelation/internal/page"
)

// Locator is the OID → physical-location mapping the paper assumes
// ("Only that there is a mapping from object reference to physical
// location", footnote 1). The assembly operator's elevator scheduler
// consults it to learn where a reference lives before fetching it.
type Locator interface {
	// Lookup resolves an OID to the RID of its record.
	Lookup(oid OID) (heap.RID, bool, error)
	// Register records the location of an object.
	Register(oid OID, rid heap.RID) error
	// Len reports the number of registered objects.
	Len() (int, error)
}

// ErrNilOID rejects registering or resolving the null reference.
var ErrNilOID = errors.New("object: nil OID")

// MapLocator keeps the mapping in memory. It models a resident OID
// index (the usual choice in the paper's experiments, where index
// traffic is excluded from the seek metric).
//
// The mapping is a dense directory: a slice indexed by the OID itself,
// since a database numbers its objects 1, 2, 3, … and the operator asks
// for every reference it resolves. The slice grows to reach an OID only
// while that keeps it within denseSlack + twice the objects registered;
// an OID further out goes to an overflow map, and each time the number
// of objects has doubled the overflow entries that have come within
// reach move into the slice (sweep). Memory is therefore O(objects
// registered) whatever OIDs they carry, and a database numbered 1..n
// ends up wholly in the slice in whatever order it is registered.
type MapLocator struct {
	dense   []denseEntry     // by OID
	n       int              // objects registered, dense and far
	far     map[OID]heap.RID // the overflow; nil until needed; no key is also set in dense
	sweepAt int              // the next sweep is due when n reaches this
}

// denseEntry is a heap.RID and whether one was registered, in 8 bytes.
type denseEntry struct {
	page disk.PageID
	slot page.SlotID
	set  bool
}

// denseSlack is how far past twice its registered objects the dense
// directory may reach: room (8 KB of it) for a small database to be
// registered in any order without a detour through the overflow.
const denseSlack = 1024

// NewMapLocator returns an empty in-memory locator.
func NewMapLocator() *MapLocator { return &MapLocator{} }

// Lookup implements Locator.
func (l *MapLocator) Lookup(oid OID) (heap.RID, bool, error) {
	if uint64(oid) < uint64(len(l.dense)) {
		if e := l.dense[oid]; e.set {
			return heap.RID{Page: e.page, Slot: e.slot}, true, nil
		}
	}
	// Not in the slice: in the overflow (where an entry may wait for the
	// next sweep after the slice has grown past it), or nowhere.
	if rid, ok := l.far[oid]; ok {
		return rid, true, nil
	}
	if oid.IsNil() {
		return heap.NilRID, false, ErrNilOID
	}
	return heap.NilRID, false, nil
}

// Register implements Locator.
func (l *MapLocator) Register(oid OID, rid heap.RID) error {
	if oid.IsNil() {
		return ErrNilOID
	}
	if uint64(oid) >= uint64(len(l.dense)) {
		if uint64(oid) >= l.reach() {
			if l.far == nil {
				l.far = make(map[OID]heap.RID)
			}
			if _, again := l.far[oid]; !again {
				l.n++
			}
			l.far[oid] = rid
			if l.n >= l.sweepAt {
				l.sweep()
			}
			return nil
		}
		l.dense = append(l.dense, make([]denseEntry, int(oid)+1-len(l.dense))...)
	}
	e := &l.dense[oid]
	if !e.set {
		if _, was := l.far[oid]; was {
			delete(l.far, oid)
		} else {
			l.n++
		}
	}
	*e = denseEntry{rid.Page, rid.Slot, true}
	if l.n >= l.sweepAt && len(l.far) > 0 {
		l.sweep()
	}
	return nil
}

// reach is the length the dense directory may grow to.
func (l *MapLocator) reach() uint64 { return uint64(2*l.n + denseSlack) }

// sweep moves the overflow entries within reach into the dense
// directory, grown to hold them. It runs when the registered objects
// have doubled since it last ran, so its walks over the overflow cost a
// registration O(1) amortised.
func (l *MapLocator) sweep() {
	l.sweepAt = 2 * l.n
	reach, end := l.reach(), uint64(len(l.dense))
	for k := range l.far {
		if uint64(k) < reach && uint64(k) >= end {
			end = uint64(k) + 1
		}
	}
	l.dense = append(l.dense, make([]denseEntry, int(end)-len(l.dense))...)
	for k, rid := range l.far {
		if uint64(k) < end {
			l.dense[k] = denseEntry{rid.Page, rid.Slot, true}
			delete(l.far, k)
		}
	}
}

// Len implements Locator.
func (l *MapLocator) Len() (int, error) { return l.n, nil }

// BTreeLocator persists the mapping in a B+-tree, so lookups cost real
// page accesses. RIDs pack into the tree's uint64 values as
// (page << 16) | slot.
type BTreeLocator struct {
	tree *btree.Tree
}

// NewBTreeLocator wraps a B+-tree as a locator.
func NewBTreeLocator(tree *btree.Tree) *BTreeLocator { return &BTreeLocator{tree: tree} }

// Tree exposes the underlying B+-tree (for persistence of its root).
func (l *BTreeLocator) Tree() *btree.Tree { return l.tree }

// PackRID encodes a RID into a uint64 B-tree value.
func PackRID(rid heap.RID) uint64 {
	return uint64(rid.Page)<<16 | uint64(rid.Slot)
}

// UnpackRID decodes a PackRID value.
func UnpackRID(v uint64) heap.RID {
	return heap.RID{Page: disk.PageID(v >> 16), Slot: page.SlotID(v & 0xFFFF)}
}

// Lookup implements Locator.
func (l *BTreeLocator) Lookup(oid OID) (heap.RID, bool, error) {
	if oid.IsNil() {
		return heap.NilRID, false, ErrNilOID
	}
	v, ok, err := l.tree.Get(uint64(oid))
	if err != nil || !ok {
		return heap.NilRID, false, err
	}
	return UnpackRID(v), true, nil
}

// Register implements Locator.
func (l *BTreeLocator) Register(oid OID, rid heap.RID) error {
	if oid.IsNil() {
		return ErrNilOID
	}
	return l.tree.Put(uint64(oid), PackRID(rid))
}

// Len implements Locator.
func (l *BTreeLocator) Len() (int, error) { return l.tree.Len() }

// Store couples a heap file, a locator, and a catalog into the
// object-storage facade the upper layers use: put an object somewhere,
// get it back by OID.
type Store struct {
	File    *heap.File
	Locator Locator
	Catalog *Catalog
}

// NewStore assembles a store from its parts.
func NewStore(f *heap.File, loc Locator, cat *Catalog) *Store {
	return &Store{File: f, Locator: loc, Catalog: cat}
}

// Put encodes the object, appends it to the file, and registers its
// location.
func (s *Store) Put(o *Object) (heap.RID, error) {
	return s.put(o, -1)
}

// PutAt is Put with explicit page placement (extent-relative index);
// the clustering policies in the generator are built on it.
func (s *Store) PutAt(o *Object, pageIdx int) (heap.RID, error) {
	return s.put(o, pageIdx)
}

func (s *Store) put(o *Object, pageIdx int) (heap.RID, error) {
	if o.OID.IsNil() {
		return heap.NilRID, ErrNilOID
	}
	rec, err := Encode(o)
	if err != nil {
		return heap.NilRID, err
	}
	var rid heap.RID
	if pageIdx >= 0 {
		rid, err = s.File.InsertAt(pageIdx, rec)
	} else {
		rid, err = s.File.Insert(rec)
	}
	if err != nil {
		return heap.NilRID, err
	}
	if err := s.Locator.Register(o.OID, rid); err != nil {
		return heap.NilRID, err
	}
	return rid, nil
}

// Update re-encodes the object over its existing record in place: the
// OID must already be registered and the encoded size must still fit
// the record's slot (it always does for same-class updates, since
// records are fixed-size per class). The write path incremental
// workloads mutate through.
func (s *Store) Update(o *Object) error {
	if o.OID.IsNil() {
		return ErrNilOID
	}
	rid, ok, err := s.Locator.Lookup(o.OID)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("object: %v not found", o.OID)
	}
	rec, err := Encode(o)
	if err != nil {
		return err
	}
	return s.File.Update(rid, rec)
}

// Get loads the object with the given OID.
func (s *Store) Get(oid OID) (*Object, error) {
	rid, ok, err := s.Locator.Lookup(oid)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("object: %v not found", oid)
	}
	o := new(Object)
	if err := s.File.Get(rid, func(rec []byte) error { return DecodeInto(rec, o) }); err != nil {
		return nil, err
	}
	return o, nil
}

// WhereIs resolves an OID to its RID, with a found flag.
func (s *Store) WhereIs(oid OID) (heap.RID, bool, error) { return s.Locator.Lookup(oid) }
