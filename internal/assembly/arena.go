package assembly

import (
	"revelation/internal/disk"
	"revelation/internal/object"
)

// component is one element of a window slot's chunk: an Instance and
// the storage object it points at, side by side.
type component struct {
	inst Instance
	obj  object.Object
}

// arena is a window slot's memory. A complex object lives exactly from
// admission to emission, so it is carved from a few chunks sized for
// the template (DESIGN.md §6): comps, children, ints and oids leave with
// the emitted object and die with it; refs holds its pending
// references, all served by then, and goes back to the operator.
type arena struct {
	comps    []component
	children []*Instance
	ints     []int32
	oids     []object.OID
	refs     []Ref
	// nInts and nOIDs total the fields decoded into the chunks: the next
	// item's slab sizes when the catalog cannot tell.
	nInts, nOIDs int
}

// arenaShape is what one complex object of the template needs from its
// arena, measured once at Open: the capacity of each chunk.
type arenaShape struct {
	comps, children, ints, oids int
	known                       bool // the catalog sized ints and oids
	shared, refs                int  // workItem.assembled; arena.refs
}

// measure adds the subtree at node. With a window-wide shared table the
// components at or below a Shared node are left out: another complex
// object can link them, so each is allocated on its own.
func (sh *arenaShape) measure(node *Template, cat *object.Catalog, sharing, own bool) {
	own = own || sharing && node.Shared
	sh.refs++
	if node.Shared {
		sh.shared++
	}
	if !own {
		sh.comps++
		sh.children += len(node.Children)
		if cls, ok := cat.ByID(node.Class); ok {
			sh.ints += cls.NumInts
			sh.oids += cls.NumRefs
		} else {
			sh.known = false
		}
	}
	for _, c := range node.Children {
		sh.measure(c, cat, sharing, own)
	}
}

// carve cuts n elements off the slab's unused tail, or allocates them
// when the slab is too short.
func carve[T any](slab *[]T, n int) []T {
	s := *slab
	if len(s)+n > cap(s) {
		return make([]T, n)
	}
	*slab = s[:len(s)+n]
	return s[len(s) : len(s)+n : len(s)+n]
}

// newComponent returns a component whose Instance points at its object,
// with Ints and Refs ready for object.DecodeInto. An own component is
// one allocation by itself: its lifetime is not the item's.
func (a *arena) newComponent(own bool, nInts, nRefs int) *component {
	var c *component
	if n := len(a.comps); !own && n < cap(a.comps) {
		a.comps = a.comps[:n+1]
		c = &a.comps[n]
		c.obj.Ints = carve(&a.ints, nInts)
		c.obj.Refs = carve(&a.oids, nRefs)
		a.nInts += nInts
		a.nOIDs += nRefs
	} else {
		c = new(component)
	}
	c.inst.Object = &c.obj
	c.inst.underShared = own
	return c
}

// newRef returns a zeroed pending reference from the item's chunk.
func (a *arena) newRef() *Ref {
	if n := len(a.refs); n < cap(a.refs) {
		a.refs = a.refs[:n+1]
		return &a.refs[n]
	}
	return new(Ref)
}

// spare is the scratch an emitted item leaves behind, cleared, for a
// later admission: its reference chunk and its two short lists.
type spare struct {
	refs      []Ref
	pages     []disk.PageID
	assembled []assembledAs
}

// newItem opens a window slot with its arena.
func (op *Operator) newItem() *workItem {
	sh := &op.shape
	item := &workItem{
		arena: arena{
			comps:    make([]component, 0, sh.comps),
			children: make([]*Instance, 0, sh.children),
			ints:     make([]int32, 0, sh.ints),
			oids:     make([]object.OID, 0, sh.oids),
		},
	}
	if n := len(op.spares) - 1; n >= 0 {
		sp := op.spares[n]
		op.spares[n] = spare{}
		op.spares = op.spares[:n]
		item.arena.refs, item.pages, item.assembled = sp.refs, sp.pages, sp.assembled
	} else {
		item.arena.refs = make([]Ref, 0, sh.refs)
		item.pages = make([]disk.PageID, 0, sh.refs)
		item.assembled = make([]assembledAs, 0, sh.shared)
	}
	return item
}

// recycle takes back an emitted item's scratch, cleared, and empties
// the slot, so that nothing the operator or a scheduler still holds — a
// spent batch entry, a depth-first stack key — reaches the object that
// has left. Every reference of an emitted item has been served; an
// aborted or quarantined item's scratch is never taken back, because its
// reference tombstones may still be chained in a pendingSet.
func (op *Operator) recycle(item *workItem) {
	if !op.shape.known {
		op.shape.ints, op.shape.oids = item.arena.nInts, item.arena.nOIDs
	}
	clear(item.arena.refs)
	clear(item.assembled)
	op.spares = append(op.spares, spare{item.arena.refs[:0], item.pages[:0], item.assembled[:0]})
	*item = workItem{emitted: true}
}
