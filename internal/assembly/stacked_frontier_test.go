package assembly

import (
	"testing"

	"revelation/internal/object"
	"revelation/internal/volcano"
)

// TestPartialRootWithPartialSubtree exercises the Section 4 "partially
// assembled sub-object" case end to end: the stacked input supplies a
// sub-assembly whose own frontier is still unresolved, and the
// downstream operator must discover and schedule it (adoptSubtree).
func TestPartialRootWithPartialSubtree(t *testing.T) {
	s, tmpl, roots := buildChainStore(t, 6)
	midNode := tmpl.Children[0]

	var items []volcano.Item
	for _, r := range roots {
		rootObj, err := s.Get(r)
		if err != nil {
			t.Fatal(err)
		}
		midObj, err := s.Get(rootObj.Refs[0])
		if err != nil {
			t.Fatal(err)
		}
		// The Mid instance arrives with its Leaf child UNRESOLVED.
		midInst := &Instance{
			Object:   midObj,
			Node:     midNode,
			Children: make([]*Instance, len(midNode.Children)),
		}
		items = append(items, PartialRoot{
			Root: r,
			Sub:  map[object.OID]*Instance{midObj.OID: midInst},
		})
	}

	op := New(volcano.NewSlice(items), s, tmpl, Options{Window: 3, Scheduler: Elevator})
	out, err := volcano.Drain(nil, op)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 6 {
		t.Fatalf("assembled %d", len(out))
	}
	for _, it := range out {
		inst := it.(*Instance)
		if inst.Size() != 4 {
			t.Fatalf("complex object has %d components", inst.Size())
		}
		checkAssembled(t, s, inst)
		// The pre-assembled Mid must be the exact instance we passed
		// in, completed in place.
		mid := inst.ChildByName("Mid")
		if mid.ChildByName("Leaf") == nil {
			t.Fatal("frontier of partial subtree not resolved")
		}
	}
	st := op.Stats()
	// Fetches per tree: root, leaf, right = 3 (Mid arrived assembled).
	if st.Fetched != 18 {
		t.Errorf("Fetched = %d, want 18", st.Fetched)
	}
	if st.SharedLinks != 6 {
		t.Errorf("SharedLinks = %d, want 6 (one pre-assembled link per tree)", st.SharedLinks)
	}
}

// TestPartialRootUnusedSubs: sub-assemblies never reached by the
// template are simply ignored.
func TestPartialRootUnusedSubs(t *testing.T) {
	s, tmpl, roots := buildChainStore(t, 2)
	orphanObj, err := s.Get(roots[1])
	if err != nil {
		t.Fatal(err)
	}
	orphan := &Instance{Object: orphanObj, Node: tmpl, Children: make([]*Instance, 2)}
	items := []volcano.Item{PartialRoot{
		Root: roots[0],
		Sub:  map[object.OID]*Instance{orphanObj.OID: orphan},
	}}
	op := New(volcano.NewSlice(items), s, tmpl, Options{Window: 1})
	out, err := volcano.Drain(nil, op)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].(*Instance).OID() != roots[0] {
		t.Fatalf("unexpected output: %v", out)
	}
}

// TestUnsupportedInputItem: the operator rejects unknown item types.
func TestUnsupportedInputItem(t *testing.T) {
	s, tmpl, _ := buildChainStore(t, 1)
	op := New(volcano.NewSlice([]volcano.Item{"not an oid"}), s, tmpl, Options{})
	if _, err := volcano.Drain(nil, op); err == nil {
		t.Error("string input accepted")
	}
}

// TestRootPredicateAbort: a predicate on the template root aborts at
// admission time.
func TestRootPredicateAbort(t *testing.T) {
	s, tmpl, roots := buildChainStore(t, 10)
	cl := tmpl.Clone()
	cl.Pred = neverRoot{}
	// Roots arrive as pre-fetched objects (exercises the admit place
	// path with an immediate abort).
	var items []volcano.Item
	for _, r := range roots {
		o, err := s.Get(r)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, o)
	}
	op := New(volcano.NewSlice(items), s, cl, Options{Window: 4, Scheduler: Elevator})
	out, err := volcano.Drain(nil, op)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("root predicate let %d objects through", len(out))
	}
	if st := op.Stats(); st.Aborted != 10 || st.Fetched != 0 {
		t.Errorf("stats = %+v", st)
	}
}

type neverRoot struct{}

func (neverRoot) Eval(*object.Object) bool { return false }
func (neverRoot) Selectivity() float64     { return 0.0001 }
func (neverRoot) String() string           { return "never-root" }

// TestAnyClassTemplate: Class 0 nodes accept any object class.
func TestAnyClassTemplate(t *testing.T) {
	s, tmpl, roots := buildChainStore(t, 3)
	anyT := tmpl.Clone()
	anyT.Walk(func(n *Template, _ int) { n.Class = 0 })
	out, _ := assembleAll(t, s, anyT, roots, Options{Window: 2, Scheduler: BreadthFirst})
	if len(out) != 3 {
		t.Fatalf("assembled %d", len(out))
	}
}
