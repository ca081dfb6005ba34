package assembly

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"revelation/internal/buffer"
	"revelation/internal/disk"
	"revelation/internal/expr"
	"revelation/internal/heap"
	"revelation/internal/object"
	"revelation/internal/volcano"
)

// buildChainStore creates a tiny hand-built database: N complex
// objects shaped Root -> (Left, Right), Left -> Leaf. Returns the
// store, template, and root OIDs.
func buildChainStore(t *testing.T, n int) (*object.Store, *Template, []object.OID) {
	t.Helper()
	d := disk.New(0)
	pool := buffer.New(d, 512)
	f, err := heap.Create(pool, n+4)
	if err != nil {
		t.Fatal(err)
	}
	cat := object.NewCatalog()
	root := cat.MustDefine(&object.Class{Name: "Root", NumInts: 2, NumRefs: 2})
	mid := cat.MustDefine(&object.Class{Name: "Mid", NumInts: 2, NumRefs: 1})
	leaf := cat.MustDefine(&object.Class{Name: "Leaf", NumInts: 2, NumRefs: 0})
	s := object.NewStore(f, object.NewMapLocator(), cat)

	var roots []object.OID
	oid := object.OID(1)
	for i := 0; i < n; i++ {
		leafO := &object.Object{OID: oid, Class: leaf.ID, Ints: []int32{int32(i), 3}}
		oid++
		midO := &object.Object{OID: oid, Class: mid.ID, Ints: []int32{int32(i), 2}, Refs: []object.OID{leafO.OID}}
		oid++
		rightO := &object.Object{OID: oid, Class: leaf.ID, Ints: []int32{int32(i), 4}}
		oid++
		rootO := &object.Object{OID: oid, Class: root.ID, Ints: []int32{int32(i), 1}, Refs: []object.OID{midO.OID, rightO.OID}}
		oid++
		for _, o := range []*object.Object{leafO, midO, rightO, rootO} {
			if _, err := s.Put(o); err != nil {
				t.Fatal(err)
			}
		}
		roots = append(roots, rootO.OID)
	}
	tmpl := &Template{
		Name: "Root", Class: root.ID, RefField: -1, Required: true,
		Children: []*Template{
			{Name: "Mid", Class: mid.ID, RefField: 0, Required: true,
				Children: []*Template{
					{Name: "Leaf", Class: leaf.ID, RefField: 0, Required: true},
				}},
			{Name: "Right", Class: leaf.ID, RefField: 1, Required: true},
		},
	}
	return s, tmpl, roots
}

func oidSource(roots []object.OID) volcano.Iterator {
	items := make([]volcano.Item, len(roots))
	for i, r := range roots {
		items[i] = r
	}
	return volcano.NewSlice(items)
}

func assembleAll(t *testing.T, s *object.Store, tmpl *Template, roots []object.OID, opts Options) ([]*Instance, *Operator) {
	t.Helper()
	op := New(oidSource(roots), s, tmpl, opts)
	items, err := volcano.Drain(op)
	if err != nil {
		t.Fatalf("assembly drain: %v", err)
	}
	out := make([]*Instance, len(items))
	for i, it := range items {
		inst, ok := it.(*Instance)
		if !ok {
			t.Fatalf("assembly emitted %T", it)
		}
		out[i] = inst
	}
	return out, op
}

func checkAssembled(t *testing.T, s *object.Store, inst *Instance) {
	t.Helper()
	inst.Walk(func(in *Instance) {
		// Every child pointer must match the underlying reference
		// field: the swizzling invariant.
		for slot, ct := range in.Node.Children {
			child := in.Children[slot]
			want := in.Object.Refs[ct.RefField]
			if want.IsNil() {
				if child != nil {
					t.Errorf("node %v slot %d: child present for nil ref", in.OID(), slot)
				}
				continue
			}
			if child == nil {
				t.Errorf("node %v slot %d: unresolved reference %v in emitted object", in.OID(), slot, want)
				continue
			}
			if child.OID() != want {
				t.Errorf("node %v slot %d: swizzled %v, want %v", in.OID(), slot, child.OID(), want)
			}
		}
	})
}

func TestAssembleBasic(t *testing.T) {
	s, tmpl, roots := buildChainStore(t, 10)
	for _, kind := range []SchedulerKind{DepthFirst, BreadthFirst, Elevator} {
		for _, window := range []int{1, 3, 10, 50} {
			t.Run(fmt.Sprintf("%v/w%d", kind, window), func(t *testing.T) {
				out, op := assembleAll(t, s, tmpl, roots, Options{Window: window, Scheduler: kind})
				if len(out) != 10 {
					t.Fatalf("assembled %d of 10", len(out))
				}
				for _, inst := range out {
					if inst.Size() != 4 {
						t.Errorf("complex object has %d components, want 4", inst.Size())
					}
					checkAssembled(t, s, inst)
				}
				st := op.Stats()
				if st.Assembled != 10 || st.Aborted != 0 {
					t.Errorf("stats = %+v", st)
				}
				if st.Fetched != 40 {
					t.Errorf("Fetched = %d, want 40", st.Fetched)
				}
			})
		}
	}
}

func TestAssemblyOutputSetInvariantAcrossSchedulers(t *testing.T) {
	// Whatever the scheduler and window, the same set of complex
	// objects comes out, with identical structure.
	s, tmpl, roots := buildChainStore(t, 25)
	collect := func(opts Options) map[object.OID]string {
		out, _ := assembleAll(t, s, tmpl, roots, opts)
		m := map[object.OID]string{}
		for _, inst := range out {
			m[inst.OID()] = inst.String()
		}
		return m
	}
	ref := collect(Options{Window: 1, Scheduler: DepthFirst})
	for _, kind := range []SchedulerKind{DepthFirst, BreadthFirst, Elevator} {
		for _, w := range []int{1, 7, 25} {
			got := collect(Options{Window: w, Scheduler: kind})
			if len(got) != len(ref) {
				t.Fatalf("%v/w%d: %d objects, want %d", kind, w, len(got), len(ref))
			}
			for oid, want := range ref {
				if got[oid] != want {
					t.Errorf("%v/w%d: object %v differs:\n%s\nvs\n%s", kind, w, oid, got[oid], want)
				}
			}
		}
	}
}

func TestDepthFirstIsObjectAtATime(t *testing.T) {
	// With depth-first scheduling, complex objects must be emitted in
	// admission order, and each object's fetches must complete before
	// the next object's begin — "equivalent to object-at-a-time
	// assembly, regardless of window size".
	s, tmpl, roots := buildChainStore(t, 8)
	out, _ := assembleAll(t, s, tmpl, roots, Options{Window: 4, Scheduler: DepthFirst})
	for i, inst := range out {
		if inst.OID() != roots[i] {
			t.Errorf("emitted[%d] = %v, want %v (admission order)", i, inst.OID(), roots[i])
		}
	}
}

func TestPredicateAbort(t *testing.T) {
	s, tmpl, roots := buildChainStore(t, 20)
	// Leaf ints[0] is the tree index; keep only even trees.
	tmpl = tmpl.Clone()
	tmpl.FindByName("Leaf").Pred = expr.Func{
		Name: "even-tree",
		Fn:   func(o *object.Object) bool { return o.Ints[0]%2 == 0 },
		Sel:  0.5,
	}
	for _, kind := range []SchedulerKind{DepthFirst, Elevator} {
		out, op := assembleAll(t, s, tmpl, roots, Options{Window: 5, Scheduler: kind})
		if len(out) != 10 {
			t.Fatalf("%v: assembled %d, want 10", kind, len(out))
		}
		for _, inst := range out {
			if inst.ChildByName("Mid").ChildByName("Leaf").Object.Ints[0]%2 != 0 {
				t.Errorf("%v: odd tree survived the predicate", kind)
			}
			checkAssembled(t, s, inst)
		}
		st := op.Stats()
		if st.Aborted != 10 || st.PredicateFails != 10 {
			t.Errorf("%v: stats = %+v", kind, st)
		}
	}
}

func TestPredicateFirstFetchesFewer(t *testing.T) {
	// With the predicate on a sub-object and a selective query,
	// predicate-first scheduling should fetch fewer objects than the
	// naive depth-first order when the predicate node is visited late.
	s, tmpl, roots := buildChainStore(t, 40)
	tmpl = tmpl.Clone()
	// Predicate on the Right child (field 1, visited after the whole
	// Mid/Leaf subtree in depth-first order).
	tmpl.FindByName("Right").Pred = expr.Func{
		Name: "never",
		Fn:   func(o *object.Object) bool { return false },
		Sel:  0.01,
	}
	_, naive := assembleAll(t, s, tmpl, roots, Options{Window: 1, Scheduler: DepthFirst})
	_, smart := assembleAll(t, s, tmpl, roots, Options{Window: 1, Scheduler: DepthFirst, PredicateFirst: true})
	if naive.Stats().Fetched <= smart.Stats().Fetched {
		t.Errorf("predicate-first fetched %d, naive %d — expected savings",
			smart.Stats().Fetched, naive.Stats().Fetched)
	}
	// Every tree rejected either way.
	if naive.Stats().Assembled != 0 || smart.Stats().Assembled != 0 {
		t.Error("never-true predicate let objects through")
	}
	// Smart: root + right per tree = 2 fetches; naive: root, mid,
	// leaf, right = 4.
	if got := smart.Stats().Fetched; got != 80 {
		t.Errorf("predicate-first fetched %d, want 80", got)
	}
}

func TestRequiredNilAborts(t *testing.T) {
	d := disk.New(0)
	pool := buffer.New(d, 64)
	f, err := heap.Create(pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	cat := object.NewCatalog()
	cls := cat.MustDefine(&object.Class{Name: "N", NumInts: 1, NumRefs: 1})
	s := object.NewStore(f, object.NewMapLocator(), cat)
	// Object 1 has a child, object 2 has a nil ref.
	child := &object.Object{OID: 10, Class: cls.ID, Ints: []int32{0}, Refs: []object.OID{0}}
	withChild := &object.Object{OID: 1, Class: cls.ID, Ints: []int32{1}, Refs: []object.OID{10}}
	without := &object.Object{OID: 2, Class: cls.ID, Ints: []int32{2}, Refs: []object.OID{0}}
	for _, o := range []*object.Object{child, withChild, without} {
		if _, err := s.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	tmpl := &Template{Name: "N", Class: cls.ID, RefField: -1,
		Children: []*Template{{Name: "C", Class: cls.ID, RefField: 0, Required: true}}}
	out, op := assembleAll(t, s, tmpl, []object.OID{1, 2}, Options{Window: 2, Scheduler: Elevator})
	if len(out) != 1 || out[0].OID() != 1 {
		t.Fatalf("required-nil handling: %d objects", len(out))
	}
	if op.Stats().Aborted != 1 {
		t.Errorf("Aborted = %d, want 1", op.Stats().Aborted)
	}
	// Optional child: both assemble, one without the subtree.
	tmpl.Children[0].Required = false
	out, _ = assembleAll(t, s, tmpl, []object.OID{1, 2}, Options{Window: 2, Scheduler: Elevator})
	if len(out) != 2 {
		t.Fatalf("optional-nil: %d objects, want 2", len(out))
	}
	for _, inst := range out {
		if inst.OID() == 2 && inst.Children[0] != nil {
			t.Error("nil ref produced a child")
		}
	}
}

func TestDanglingReferenceError(t *testing.T) {
	s, tmpl, _ := buildChainStore(t, 1)
	op := New(oidSource([]object.OID{999}), s, tmpl, Options{})
	if _, err := volcano.Drain(op); err == nil {
		t.Error("dangling root reference did not error")
	}
}

func TestInvalidTemplateRejectedAtOpen(t *testing.T) {
	s, _, roots := buildChainStore(t, 1)
	bad := &Template{Name: "X", RefField: -1, Children: []*Template{
		{Name: "a", RefField: 0}, {Name: "b", RefField: 0}, // duplicate field
	}}
	op := New(oidSource(roots), s, bad, Options{})
	if err := op.Open(); err == nil {
		t.Error("duplicate ref field template accepted")
	}
	op2 := New(oidSource(roots), s, nil, Options{})
	if err := op2.Open(); err == nil {
		t.Error("nil template accepted")
	}
}

func TestClassMismatchError(t *testing.T) {
	s, tmpl, roots := buildChainStore(t, 1)
	bad := tmpl.Clone()
	bad.FindByName("Right").Class = 1 // Root class, but object is a Leaf
	op := New(oidSource(roots), s, bad, Options{})
	if _, err := volcano.Drain(op); err == nil {
		t.Error("class mismatch not detected")
	}
}

func TestRootObjectInput(t *testing.T) {
	// *object.Object roots skip the root fetch.
	s, tmpl, roots := buildChainStore(t, 3)
	var items []volcano.Item
	for _, r := range roots {
		o, err := s.Get(r)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, o)
	}
	op := New(volcano.NewSlice(items), s, tmpl, Options{Window: 2, Scheduler: Elevator})
	out, err := volcano.Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("assembled %d", len(out))
	}
	if got := op.Stats().Fetched; got != 9 { // 3 components per tree beyond the root
		t.Errorf("Fetched = %d, want 9", got)
	}
}

func TestPartiallyAssembledInput(t *testing.T) {
	// Assemble with a shallow template, then finish with the full one:
	// the second operator must only fetch the missing components.
	s, tmpl, roots := buildChainStore(t, 5)
	shallow := tmpl // full template tree; first pass assembles only Root+Right
	// Build partial instances by hand: root with Right resolved, Mid
	// subtree missing.
	var items []volcano.Item
	for _, r := range roots {
		rootObj, err := s.Get(r)
		if err != nil {
			t.Fatal(err)
		}
		rightObj, err := s.Get(rootObj.Refs[1])
		if err != nil {
			t.Fatal(err)
		}
		rootInst := &Instance{Object: rootObj, Node: shallow, Children: make([]*Instance, 2)}
		rightInst := &Instance{Object: rightObj, Node: shallow.Children[1], Parent: rootInst}
		rootInst.Children[1] = rightInst
		items = append(items, rootInst)
	}
	op := New(volcano.NewSlice(items), s, tmpl, Options{Window: 3, Scheduler: Elevator})
	out, err := volcano.Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("assembled %d", len(out))
	}
	for _, it := range out {
		checkAssembled(t, s, it.(*Instance))
	}
	// Only Mid and Leaf fetched per tree.
	if got := op.Stats().Fetched; got != 10 {
		t.Errorf("Fetched = %d, want 10", got)
	}
}

func TestWindowFootprintBounded(t *testing.T) {
	s, tmpl, roots := buildChainStore(t, 30)
	_, op1 := assembleAll(t, s, tmpl, roots, Options{Window: 1, Scheduler: Elevator})
	_, op8 := assembleAll(t, s, tmpl, roots, Options{Window: 8, Scheduler: Elevator})
	if op1.Stats().PeakWindowPgs > 4+1 {
		t.Errorf("window=1 peak footprint %d pages, want <= 5", op1.Stats().PeakWindowPgs)
	}
	if op8.Stats().PeakWindowPgs < op1.Stats().PeakWindowPgs {
		t.Errorf("larger window shrank footprint: %d < %d",
			op8.Stats().PeakWindowPgs, op1.Stats().PeakWindowPgs)
	}
}

func TestNextBeforeOpen(t *testing.T) {
	s, tmpl, roots := buildChainStore(t, 1)
	op := New(oidSource(roots), s, tmpl, Options{})
	if _, err := op.Next(); !errors.Is(err, volcano.ErrNotOpen) {
		t.Errorf("Next before Open err = %v", err)
	}
}

func TestEmptyInput(t *testing.T) {
	s, tmpl, _ := buildChainStore(t, 1)
	op := New(oidSource(nil), s, tmpl, Options{Window: 10})
	out, err := volcano.Drain(op)
	if err != nil || len(out) != 0 {
		t.Errorf("empty input = (%v, %v)", out, err)
	}
}

func TestNilRootSkipped(t *testing.T) {
	s, tmpl, roots := buildChainStore(t, 2)
	op := New(oidSource([]object.OID{roots[0], object.NilOID, roots[1]}), s, tmpl, Options{Window: 2})
	out, err := volcano.Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Errorf("assembled %d, want 2 (nil root skipped)", len(out))
	}
}

func TestElevatorSeeksLessThanDepthFirstOnRandomLayout(t *testing.T) {
	// Scatter components across a large file so scheduling matters,
	// then compare seek totals: elevator with a window must beat
	// depth-first object-at-a-time.
	s, tmpl, roots := scatteredStore(t, 200)
	dev := s.File.Pool().Device()

	assembleAll(t, s, tmpl, roots, Options{Window: 1, Scheduler: DepthFirst})
	naive := dev.Stats().AvgSeekPerRead()

	if err := s.File.Pool().EvictAll(); err != nil {
		t.Fatal(err)
	}
	dev.ResetStats()
	assembleAll(t, s, tmpl, roots, Options{Window: 50, Scheduler: Elevator})
	elev := dev.Stats().AvgSeekPerRead()

	if elev >= naive {
		t.Errorf("elevator (%.1f) not better than object-at-a-time (%.1f)", elev, naive)
	}
	if elev > naive/2 {
		t.Errorf("elevator %.1f vs naive %.1f: expected at least 2x improvement on random layout", elev, naive)
	}
}

// scatteredStore builds complex objects whose components are spread
// pseudo-randomly over a wide extent.
func scatteredStore(t *testing.T, n int) (*object.Store, *Template, []object.OID) {
	t.Helper()
	d := disk.New(0)
	pool := buffer.New(d, 2048)
	pages := (4*n)/9 + 2
	f, err := heap.Create(pool, pages)
	if err != nil {
		t.Fatal(err)
	}
	cat := object.NewCatalog()
	cls := cat.MustDefine(&object.Class{Name: "N", NumInts: 1, NumRefs: 2})
	s := object.NewStore(f, object.NewMapLocator(), cat)

	// Pre-compute a scattered page permutation.
	perm := make([]int, 4*n)
	for i := range perm {
		perm[i] = (i * 2654435761) % pages
	}
	slot := 0
	place := func(o *object.Object) {
		for {
			if _, err := s.PutAt(o, perm[slot%len(perm)]); err == nil {
				slot++
				return
			}
			slot++
		}
	}
	var roots []object.OID
	oid := object.OID(1)
	for i := 0; i < n; i++ {
		l1 := &object.Object{OID: oid, Class: cls.ID, Ints: []int32{0}, Refs: make([]object.OID, 2)}
		oid++
		l2 := &object.Object{OID: oid, Class: cls.ID, Ints: []int32{0}, Refs: make([]object.OID, 2)}
		oid++
		r := &object.Object{OID: oid, Class: cls.ID, Ints: []int32{0}, Refs: []object.OID{l1.OID, l2.OID}}
		oid++
		place(l1)
		place(l2)
		place(r)
		roots = append(roots, r.OID)
	}
	tmpl := &Template{Name: "R", Class: cls.ID, RefField: -1, Children: []*Template{
		{Name: "L1", Class: cls.ID, RefField: 0, Required: true},
		{Name: "L2", Class: cls.ID, RefField: 1, Required: true},
	}}
	if err := pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	d.ResetStats()
	return s, tmpl, roots
}

func TestSchedulerUnits(t *testing.T) {
	mk := func(oid int, pg int, item *workItem) *Ref {
		return &Ref{OID: object.OID(oid), RID: heap.RID{Page: disk.PageID(pg)}, Item: item,
			Node: &Template{Name: "x"}}
	}
	t.Run("breadth-first FIFO", func(t *testing.T) {
		s := NewScheduler(BreadthFirst)
		it := &workItem{}
		s.Add(mk(1, 9, it), mk(2, 1, it), mk(3, 5, it))
		var got []object.OID
		for r := s.Next(0); r != nil; r = s.Next(0) {
			got = append(got, r.OID)
		}
		if fmt.Sprint(got) != "[oid:1 oid:2 oid:3]" {
			t.Errorf("FIFO order = %v", got)
		}
	})
	t.Run("elevator SCAN order", func(t *testing.T) {
		s := NewScheduler(Elevator)
		it := &workItem{}
		s.Add(mk(1, 50, it), mk(2, 10, it), mk(3, 90, it), mk(4, 30, it))
		head := disk.PageID(40)
		var pgs []disk.PageID
		for r := s.Next(head); r != nil; r = s.Next(head) {
			pgs = append(pgs, r.Page())
			head = r.Page()
		}
		// From 40 going up: 50, 90; reverse: 30, 10.
		want := []disk.PageID{50, 90, 30, 10}
		if fmt.Sprint(pgs) != fmt.Sprint(want) {
			t.Errorf("SCAN order = %v, want %v", pgs, want)
		}
	})
	t.Run("dead refs skipped", func(t *testing.T) {
		for _, kind := range []SchedulerKind{DepthFirst, BreadthFirst, Elevator} {
			s := NewScheduler(kind)
			live, dead := &workItem{}, &workItem{aborted: true}
			s.Add(mk(1, 5, dead), mk(2, 7, live), mk(3, 9, dead))
			r := s.Next(0)
			if r == nil || r.OID != 2 {
				t.Errorf("%v: got %v, want live ref 2", kind, r)
			}
			if s.Next(0) != nil {
				t.Errorf("%v: dead ref returned", kind)
			}
		}
	})
	t.Run("depth-first oldest item first", func(t *testing.T) {
		s := NewScheduler(DepthFirst)
		a, b := &workItem{}, &workItem{}
		s.Add(mk(1, 0, a))
		s.Add(mk(2, 0, b))
		s.Add(mk(3, 0, a), mk(4, 0, a)) // children of a, left-to-right
		var got []object.OID
		for r := s.Next(0); r != nil; r = s.Next(0) {
			got = append(got, r.OID)
		}
		// a's refs exhaust first (LIFO within a, batches in order),
		// then b's.
		if fmt.Sprint(got) != "[oid:3 oid:4 oid:1 oid:2]" {
			t.Errorf("depth-first order = %v", got)
		}
	})
}

func TestExpectedReferences(t *testing.T) {
	cases := map[float64]int{0.25: 4, 0.05: 20, 1: 1, 0: 1, -0.5: 1, 0.33: 3}
	for degree, want := range cases {
		if got := expectedReferences(degree); got != want {
			t.Errorf("expectedReferences(%v) = %d, want %d", degree, got, want)
		}
	}
}

func TestTemplateHelpers(t *testing.T) {
	tmpl := BinaryTreeTemplate(3, 0)
	if tmpl.Nodes() != 7 {
		t.Errorf("Nodes = %d, want 7", tmpl.Nodes())
	}
	if tmpl.Depth() != 3 {
		t.Errorf("Depth = %d, want 3", tmpl.Depth())
	}
	if tmpl.HasPredicates() {
		t.Error("fresh template has predicates")
	}
	cp := tmpl.Clone()
	cp.Children[0].Pred = expr.True{}
	if tmpl.HasPredicates() {
		t.Error("Clone aliases children")
	}
	if !cp.HasPredicates() {
		t.Error("clone lost predicate")
	}
	if err := tmpl.Validate(nil); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if tmpl.FindByName("nope") != nil {
		t.Error("FindByName invented a node")
	}
	if tmpl.String() == "" {
		t.Error("String empty")
	}
}

func TestInstanceHelpers(t *testing.T) {
	s, tmpl, roots := buildChainStore(t, 1)
	out, _ := assembleAll(t, s, tmpl, roots, Options{})
	inst := out[0]
	if inst.Size() != 4 {
		t.Errorf("Size = %d", inst.Size())
	}
	if got := len(inst.Flatten()); got != 4 {
		t.Errorf("Flatten len = %d", got)
	}
	mid := inst.Child(0)
	if mid == nil || mid.Node.Name != "Mid" {
		t.Fatalf("Child(0) = %v", mid)
	}
	if mid.Parent != inst {
		t.Error("Parent pointer not set")
	}
	if inst.ChildByName("Right") == nil {
		t.Error("ChildByName failed")
	}
	if inst.ChildByName("absent") != nil {
		t.Error("ChildByName invented a child")
	}
	if !inst.Complete() {
		t.Error("emitted object reported incomplete")
	}
	var nilInst *Instance
	if nilInst.OID() != object.NilOID {
		t.Error("nil instance OID")
	}
	if nilInst.Complete() {
		t.Error("nil instance complete")
	}
}

// Complete guards on the child's reference field, not on its slot in
// the template: a node reached through field 5 of a 3-reference object
// is an absent component, not a panic.
func TestCompleteRefFieldBeyondObject(t *testing.T) {
	tmpl := &Template{Name: "Root", RefField: -1, Children: []*Template{
		{Name: "Far", RefField: 5, Required: true},
	}}
	root := &Instance{
		Object:   &object.Object{OID: 1, Refs: []object.OID{7, 8, 9}},
		Node:     tmpl,
		Children: make([]*Instance, 1),
	}
	if !root.Complete() {
		t.Error("a required child on a field the object does not have reported incomplete")
	}
	tmpl.Children[0].RefField = 2 // a field it has, non-nil, unassembled
	if root.Complete() {
		t.Error("an unassembled required child reported complete")
	}
}

func TestSortRootsHelperStability(t *testing.T) {
	// Emission order with elevator+window is data-dependent; verify we
	// can rely on the OID set instead.
	s, tmpl, roots := buildChainStore(t, 12)
	out, _ := assembleAll(t, s, tmpl, roots, Options{Window: 6, Scheduler: Elevator})
	var got []int
	for _, inst := range out {
		got = append(got, int(inst.OID()))
	}
	sort.Ints(got)
	var want []int
	for _, r := range roots {
		want = append(want, int(r))
	}
	sort.Ints(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("emitted roots %v, want %v", got, want)
	}
}
