package assembly

import (
	"fmt"

	"revelation/internal/disk"
	"revelation/internal/object"
)

// Instance is one assembled component of a complex object: the decoded
// storage object plus swizzled child pointers. Once the assembly
// operator emits a complex object, scanning it "is reduced to following
// memory pointers" (Section 4) — no OID-to-address table is consulted.
type Instance struct {
	// Object is the decoded storage-layer object.
	Object *object.Object
	// Node is the template node this component instantiates.
	Node *Template
	// Children are the swizzled sub-components, parallel to
	// Node.Children. A nil entry means the reference was the nil OID
	// (optional component absent).
	Children []*Instance
	// Parent is the first parent this instance was linked under. A
	// shared instance can be reachable from several complex objects:
	// once complete and offered to the window-wide shared table its
	// Parent is nil, so it does not keep its first object alive.
	Parent *Instance
	// refs counts how many parents currently link the instance
	// (reference counting for shared components, Section 5).
	refs int32
	// page records which device page the object was fetched from, for
	// buffer hints and window-footprint accounting.
	page disk.PageID
	// pendingDesc counts unresolved references anywhere in the
	// subtree; a shared subtree enters the window-wide shared table
	// when this returns to zero.
	pendingDesc int32
	// registered marks instances already placed in the shared table.
	registered bool
	// underShared marks a component allocated on its own, not in its
	// item's arena (see Operator.ownLifetime); children inherit it.
	underShared bool
}

// OID is a shorthand for the instance's object identifier.
func (in *Instance) OID() object.OID {
	if in == nil || in.Object == nil {
		return object.NilOID
	}
	return in.Object.OID
}

// ChildByName returns the sub-instance for the template child with the
// given name, or nil.
func (in *Instance) ChildByName(name string) *Instance {
	for i, c := range in.Node.Children {
		if c.Name == name {
			return in.Children[i]
		}
	}
	return nil
}

// Walk visits the instance tree depth-first, parents before children.
// Shared sub-instances reachable twice are visited each time they are
// reached (the traversal mirrors the complex object's structure, not
// the object graph's identity).
func (in *Instance) Walk(fn func(*Instance)) {
	if in == nil {
		return
	}
	fn(in)
	for _, c := range in.Children {
		c.Walk(fn)
	}
}

// Size counts the non-nil components of the complex object.
func (in *Instance) Size() int {
	n := 0
	in.Walk(func(*Instance) { n++ })
	return n
}

// String renders the assembled tree for debugging.
func (in *Instance) String() string {
	var render func(i *Instance, depth int) string
	render = func(i *Instance, depth int) string {
		out := ""
		for d := 0; d < depth; d++ {
			out += "  "
		}
		if i == nil {
			return out + "-\n"
		}
		out += fmt.Sprintf("%s %v\n", i.Node.Name, i.Object.OID)
		for _, c := range i.Children {
			out += render(c, depth+1)
		}
		return out
	}
	return render(in, 0)
}

// PartialRoot is the input item for stacked assembly (Fig. 17): the
// OID of a complex object's root plus sub-objects a previous assembly
// operator already assembled, keyed by their OIDs. When the downstream
// operator resolves a reference whose target appears in Sub, it links
// the pre-assembled instance instead of fetching, and only that
// instance's unresolved frontier (if any) is scheduled.
type PartialRoot struct {
	Root object.OID
	Sub  map[object.OID]*Instance
}
