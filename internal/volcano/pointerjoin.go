package volcano

import (
	"errors"
	"fmt"
	"sort"

	"revelation/internal/object"
)

// Pair is what PointerJoin emits: a parent object and the child its
// reference field names.
type Pair struct {
	Left, Right Item
}

// PointerJoin is the pointer-based functional join of the related-work
// section: each left object carries an embedded OID in reference field
// Field; the join dereferences it through the store and emits
// Pair{parent, child}. Objects whose reference is nil are dropped
// (inner-join semantics).
//
// Mode selects the fetch discipline:
//
//   - NaivePointer fetches children in input order — the
//     object-at-a-time discipline.
//   - SortedPointer first materializes the whole pointer set, sorts it
//     by physical address, and fetches in physical order (Kooi's
//     TID-scan optimization). It trades sort space and full-input
//     blocking for short seeks — precisely the trade-off the assembly
//     operator was designed to avoid.
type PointerJoin struct {
	Input Iterator
	Store *object.Store
	Field int
	Mode  PointerJoinMode

	pairs []Pair // sorted mode: fully materialized output
	pos   int
	open  bool
}

// PointerJoinMode selects the pointer join discipline.
type PointerJoinMode int

// Pointer join modes.
const (
	NaivePointer PointerJoinMode = iota
	SortedPointer
)

// NewPointerJoin builds a pointer join on reference field `field`.
func NewPointerJoin(in Iterator, store *object.Store, field int, mode PointerJoinMode) *PointerJoin {
	return &PointerJoin{Input: in, Store: store, Field: field, Mode: mode}
}

// Open implements Iterator.
func (j *PointerJoin) Open() error {
	if err := j.Input.Open(); err != nil {
		return err
	}
	j.pairs = nil
	j.pos = 0
	j.open = true
	if j.Mode == NaivePointer {
		return nil
	}
	// Sorted mode: block, collect (parent, oid, rid), sort by physical
	// location, fetch in that order.
	type ref struct {
		parent *object.Object
		oid    object.OID
		page   uint32
		slot   uint16
	}
	var refs []ref
	for {
		item, err := j.Input.Next()
		if errors.Is(err, Done) {
			break
		}
		if err != nil {
			return err
		}
		o, ok := item.(*object.Object)
		if !ok {
			return typeError("pointer join", item)
		}
		oid, err := refField(o, j.Field)
		if err != nil {
			return err
		}
		if oid.IsNil() {
			continue
		}
		rid, found, err := j.Store.WhereIs(oid)
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("volcano: pointer join: dangling reference %v", oid)
		}
		refs = append(refs, ref{parent: o, oid: oid, page: uint32(rid.Page), slot: uint16(rid.Slot)})
	}
	sort.Slice(refs, func(a, b int) bool {
		if refs[a].page != refs[b].page {
			return refs[a].page < refs[b].page
		}
		return refs[a].slot < refs[b].slot
	})
	for _, r := range refs {
		child, err := j.Store.Get(r.oid)
		if err != nil {
			return err
		}
		j.pairs = append(j.pairs, Pair{Left: r.parent, Right: child})
	}
	return nil
}

// Next implements Iterator.
func (j *PointerJoin) Next() (Item, error) {
	if !j.open {
		return nil, ErrNotOpen
	}
	if j.Mode == SortedPointer {
		if j.pos >= len(j.pairs) {
			return nil, Done
		}
		p := j.pairs[j.pos]
		j.pos++
		return p, nil
	}
	for {
		item, err := j.Input.Next()
		if err != nil {
			return nil, err
		}
		o, ok := item.(*object.Object)
		if !ok {
			return nil, typeError("pointer join", item)
		}
		oid, err := refField(o, j.Field)
		if err != nil {
			return nil, err
		}
		if oid.IsNil() {
			continue
		}
		child, err := j.Store.Get(oid)
		if err != nil {
			return nil, err
		}
		return Pair{Left: o, Right: child}, nil
	}
}

// Close implements Iterator.
func (j *PointerJoin) Close() error {
	j.open = false
	j.pairs = nil
	return j.Input.Close()
}

func refField(o *object.Object, field int) (object.OID, error) {
	if field < 0 || field >= len(o.Refs) {
		return object.NilOID, fmt.Errorf("volcano: object %v has no reference field %d", o.OID, field)
	}
	return o.Refs[field], nil
}
