package assembly

import (
	"unsafe"

	"revelation/internal/disk"
	"revelation/internal/object"
)

// component is one element of a window slot's chunk: an Instance and
// the storage object it points at, with the object's fields inline
// (object.Block). It is 208 bytes, a size class of its own (the
// Instance's counters are int32 for it; TestArenaStructSizes pins it),
// so a 7-node chunk takes the 1536-byte class and a 31-node one the
// 6528-byte class.
type component struct {
	inst Instance
	blk  object.Block
}

// arena is a window slot's memory. A complex object lives exactly from
// admission to emission, so it is carved from two chunks sized for the
// template (DESIGN.md §6): comps and children leave with the emitted
// object and die with it; refs holds its pending references, all served
// by then, and goes back to the operator.
type arena struct {
	comps    []component
	children []*Instance
	refs     []Ref
}

// arenaShape is what one complex object of the template needs from its
// arena, measured once at Open: the capacity of each chunk.
type arenaShape struct {
	comps, children int
	shared, refs    int // workItem.assembled; arena.refs
}

// measure adds the subtree at node. With a window-wide shared table the
// components at or below a Shared node are left out: another complex
// object can link them, so each is allocated on its own.
func (sh *arenaShape) measure(node *Template, sharing, own bool) {
	own = own || sharing && node.Shared
	sh.refs++
	if node.Shared {
		sh.shared++
	}
	if !own {
		sh.comps++
		sh.children += len(node.Children)
	}
	for _, c := range node.Children {
		sh.measure(c, sharing, own)
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
// readied for object.DecodeInto of nInts and nRefs fields. An own
// component is one allocation by itself: its lifetime is not the item's.
func (a *arena) newComponent(own bool, nInts, nRefs int) *component {
	var c *component
	if n := len(a.comps); !own && n < cap(a.comps) {
		a.comps = a.comps[:n+1]
		c = &a.comps[n]
	} else {
		c = new(component)
	}
	c.blk.Fields(nInts, nRefs)
	c.inst.Object = &c.blk.Object
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
// later admission: its reference chunk and its two short lists. The
// query's chunk of fresh scratch (Operator.chunk) takes the same shape,
// the window's worth in each list.
type spare struct {
	refs      []Ref
	pages     []disk.PageID
	assembled []assembledAs
}

// freshScratch carves a window slot's scratch from the query's chunk,
// which the first call allocates with room for W slots: a query makes
// three allocations for it, not three per slot. Past W slots (an aborted
// item's scratch is never taken back) carve allocates each list on its
// own. A dead item's part of the chunk is never reused; the chunk lives
// until Close.
func (op *Operator) freshScratch() ([]Ref, []disk.PageID, []assembledAs) {
	sh, c := &op.shape, &op.chunk
	if c.refs == nil {
		w := max(op.Opts.Window, 1)
		*c = spare{
			refs:      make([]Ref, 0, w*sh.refs),
			pages:     make([]disk.PageID, 0, w*sh.refs),
			assembled: make([]assembledAs, 0, w*sh.shared),
		}
	}
	return carve(&c.refs, sh.refs)[:0], carve(&c.pages, sh.refs)[:0], carve(&c.assembled, sh.shared)[:0]
}

// slotChunk is how many window slots one allocation holds: enough to
// fill the 8192-byte size class (46 of 176 bytes).
const slotChunk = 8192 / unsafe.Sizeof(workItem{})

// newItem opens a window slot with its arena. The slot is carved from
// the operator's chunk of slots and never reused: a scheduler may still
// hold an emitted or dead item as a key (depth-first's stacks), so a
// slot must stay what it was until every such key is gone.
func (op *Operator) newItem() *workItem {
	if len(op.slots) == cap(op.slots) {
		op.slots = make([]workItem, 0, slotChunk)
	}
	item := &carve(&op.slots, 1)[0]
	sh := &op.shape
	item.arena = arena{
		comps:    make([]component, 0, sh.comps),
		children: make([]*Instance, 0, sh.children),
	}
	if n := len(op.spares) - 1; n >= 0 {
		sp := op.spares[n]
		op.spares[n] = spare{}
		op.spares = op.spares[:n]
		item.arena.refs, item.pages, item.assembled = sp.refs, sp.pages, sp.assembled
	} else {
		item.arena.refs, item.pages, item.assembled = op.freshScratch()
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
	clear(item.arena.refs)
	clear(item.assembled)
	op.spares = append(op.spares, spare{item.arena.refs[:0], item.pages[:0], item.assembled[:0]})
	*item = workItem{emitted: true}
}
