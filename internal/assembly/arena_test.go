package assembly

// Lifetime tests for the window slot's arena. A complex object is carved
// from a few chunks, so one stray pointer into a chunk keeps all of it
// alive. A finalizer never runs on an Instance (child.Parent closes a
// cycle through it), so these tests hand the operator its roots as
// *object.Object: the root component then points at an object of the
// test's own, with a finalizer, that is reachable exactly as long as the
// chunk is — and they watch it while the operator is still running.

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"revelation/internal/buffer"
	"revelation/internal/disk"
	"revelation/internal/heap"
	"revelation/internal/object"
	"revelation/internal/volcano"
)

// sentinelRoots loads every root object and arms a finalizer on each
// that sets its flag in the returned slice.
func sentinelRoots(t *testing.T, s *object.Store, roots []object.OID) ([]volcano.Item, []atomic.Bool) {
	t.Helper()
	items := make([]volcano.Item, len(roots))
	freed := make([]atomic.Bool, len(roots))
	for i, r := range roots {
		o, err := s.Get(r)
		if err != nil {
			t.Fatal(err)
		}
		flag := &freed[i]
		runtime.SetFinalizer(o, func(*object.Object) { flag.Store(true) })
		items[i] = o
	}
	return items, freed
}

// collected waits for the flag's finalizer to have run.
func collected(flag *atomic.Bool) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		runtime.GC()
		if flag.Load() {
			return true
		}
	}
	return false
}

// An emitted complex object is collected once the consumer drops it,
// while the operator still runs: neither the reference free list, the
// discover scratch, op.fetch, outq, the input's spent slots, a
// scheduler's spent slots nor a later item's chunk may reach it.
func TestEmittedObjectCollectedWhileRunning(t *testing.T) {
	for _, sched := range diffScheds {
		for bits := 0; bits < 4; bits++ {
			opts := Options{Window: 6, PageBatch: bits&1 != 0, UseSharingStats: bits&2 != 0}
			sched.set(&opts)
			w := genWorld(t, rand.New(rand.NewSource(1003)))
			items, freed := sentinelRoots(t, w.store, w.roots)
			index := map[object.OID]int{}
			for i, r := range w.roots {
				index[r] = i
			}
			op := New(&forgetfulSource{items: items}, w.store, w.tmpl, opts)
			if err := op.Open(); err != nil {
				t.Fatal(err)
			}
			// emit pulls one object and keeps nothing of it but which
			// root it was.
			emit := func() int {
				it, err := op.Next()
				if errors.Is(err, volcano.Done) {
					return -1
				}
				if err != nil {
					t.Fatal(err)
				}
				return index[it.(*Instance).OID()]
			}
			emitted := 0
			for i := emit(); i >= 0; i = emit() {
				emitted++
				if !collected(&freed[i]) {
					t.Fatalf("%s bits %02b: emitted object %v is still reachable after the consumer dropped it",
						sched.name, bits, w.roots[i])
				}
			}
			if emitted < 3 {
				t.Fatalf("%s bits %02b: only %d objects emitted", sched.name, bits, emitted)
			}
			if err := op.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// An adopted complex object (an assembled *Instance as input) is
// collected once emitted and dropped, while the operator still runs.
// Adoption remembers every instance of the tree, past the room the
// template's shared nodes give the list in the query's chunk; the grown
// list must leave none behind in the chunk.
func TestAdoptedObjectCollectedWhileRunning(t *testing.T) {
	s, tmpl, roots := sharedPairStore(t)
	items, freed := sentinelRoots(t, s, roots)
	first := New(&forgetfulSource{items: items}, s, tmpl, Options{Window: 2, Scheduler: Elevator})
	adopted, err := volcano.Drain(nil, first)
	if err != nil || len(adopted) != len(roots) {
		t.Fatalf("assembled %d of %d: %v", len(adopted), len(roots), err)
	}
	op := New(&forgetfulSource{items: adopted}, s, tmpl, Options{Window: 2, Scheduler: Elevator})
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	for n := range roots {
		it, err := op.Next()
		if err != nil {
			t.Fatalf("object %d: %v (%+v)", n, err, op.Stats())
		}
		i := slices.Index(roots, it.(*Instance).OID())
		if !collected(&freed[i]) {
			t.Fatalf("adopted object %v is still reachable after the consumer dropped it", roots[i])
		}
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
}

// forgetfulSource is a slice iterator that drops each item as it hands
// it out, so that the input does not keep the sentinels alive.
type forgetfulSource struct {
	items []volcano.Item
	next  int
}

func (s *forgetfulSource) Open() error  { return nil }
func (s *forgetfulSource) Close() error { return nil }
func (s *forgetfulSource) Next() (volcano.Item, error) {
	if s.next == len(s.items) {
		return nil, volcano.Done
	}
	it := s.items[s.next]
	s.items[s.next] = nil
	s.next++
	return it, nil
}

// sharedPairStore holds two complex objects, Root -> (Own, Leaf), whose
// Leaf is the same shared object.
func sharedPairStore(t *testing.T) (*object.Store, *Template, []object.OID) {
	t.Helper()
	pool := buffer.New(disk.New(0), 64)
	f, err := heap.Create(pool, 8)
	if err != nil {
		t.Fatal(err)
	}
	cat := object.NewCatalog()
	cls := cat.MustDefine(&object.Class{Name: "C", NumInts: 1, NumRefs: 2})
	s := object.NewStore(f, object.NewMapLocator(), cat)
	put := func(oid object.OID, refs ...object.OID) {
		o := &object.Object{OID: oid, Class: cls.ID, Ints: []int32{int32(oid)}, Refs: make([]object.OID, 2)}
		copy(o.Refs, refs)
		if _, err := s.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	const leaf = 9
	put(leaf)
	put(11)
	put(12)
	put(1, 11, leaf)
	put(2, 12, leaf)
	tmpl := &Template{Name: "Root", Class: cls.ID, RefField: -1, Children: []*Template{
		{Name: "Own", Class: cls.ID, RefField: 0, Required: true},
		{Name: "Leaf", Class: cls.ID, RefField: 1, Required: true, Shared: true, SharingDegree: 0.5},
	}}
	return s, tmpl, []object.OID{1, 2}
}

// With UseSharingStats on, object B links a leaf that was assembled for
// object A. Retaining either one while the other is dropped must free
// the other's own components: the shared leaf is allocated on its own
// and does not point back at its first parent.
func TestSharedLeafDoesNotPinItsFirstObject(t *testing.T) {
	for keep := 0; keep < 2; keep++ {
		s, tmpl, roots := sharedPairStore(t)
		items, freed := sentinelRoots(t, s, roots)
		op := New(&forgetfulSource{items: items}, s, tmpl, Options{Window: 2, Scheduler: Elevator, UseSharingStats: true})
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		var kept *Instance
		func() {
			var objs [2]*Instance
			for range objs {
				it, err := op.Next()
				if err != nil {
					t.Fatal(err)
				}
				objs[it.(*Instance).OID()-1] = it.(*Instance)
			}
			leaf := objs[0].ChildByName("Leaf")
			if leaf == nil || leaf != objs[1].ChildByName("Leaf") || leaf.refs != 2 || op.Stats().SharedLinks != 1 {
				t.Fatalf("the two objects do not share one leaf instance (links %d)", op.Stats().SharedLinks)
			}
			if leaf.Parent != nil {
				t.Errorf("shared leaf still points at its first parent %v", leaf.Parent.OID())
			}
			kept = objs[keep]
		}()
		if !collected(&freed[1-keep]) {
			t.Errorf("keep %v: the dropped object is still reachable through the shared leaf", roots[keep])
		}
		if freed[keep].Load() || kept.ChildByName("Leaf").OID() != 9 {
			t.Errorf("keep %v: the retained object was collected or lost its leaf", roots[keep])
		}
		runtime.KeepAlive(kept)
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// queued lists every reference a scheduler still holds, dead ones
// included.
func queued(t *testing.T, s Scheduler) []*Ref {
	var out []*Ref
	set := func(p *pendingSet) {
		for _, leaf := range p.leaves {
			if leaf == nil {
				continue
			}
			for _, r := range leaf.heads {
				for ; r != nil; r = r.next {
					out = append(out, r)
				}
			}
		}
	}
	switch s := s.(type) {
	case *depthFirst:
		for _, st := range s.stacks {
			out = append(out, st...)
		}
	case *breadthFirst:
		out = append(out, s.queue...)
	case *elevator:
		set(&s.pend)
	case *LaneElevator:
		for i := range s.lanes {
			set(&s.lanes[i].pend)
		}
	case *PredicateFirst:
		out = append(queued(t, s.hot), queued(t, s.cold)...)
	default:
		t.Fatalf("unknown scheduler %T", s)
	}
	return out
}

// An aborted or quarantined item's reference chunk is never handed to a
// later item while a tombstone of theirs is still queued: after every
// step, each reference a scheduler holds still names its item and lies
// in that item's own chunk, and every chunk on the free list is cleared
// and disjoint from what is queued. Seeded predicate aborts and
// SkipObject quarantines, under PageBatch and the shard-elevator's
// prefetch.
func TestDeadItemsChunksNotRecycled(t *testing.T) {
	inChunk := func(chunk []Ref, r *Ref) bool {
		chunk = chunk[:cap(chunk)]
		for i := range chunk {
			if &chunk[i] == r {
				return true
			}
		}
		return false
	}
	var total Stats
	tombstones := 0
	for trial := 0; trial < 6; trial++ {
		for _, sched := range diffScheds {
			for bits := 0; bits < 2; bits++ {
				dev := disk.NewFaulty(disk.New(0), disk.FaultConfig{})
				w := genWorldOn(t, rand.New(rand.NewSource(int64(1000+trial))), dev)
				if err := w.store.File.Pool().EvictAll(); err != nil {
					t.Fatal(err)
				}
				dev.SetConfig(disk.FaultConfig{Seed: 99, PermanentRate: 0.04})
				opts := Options{Window: 8, FaultPolicy: SkipObject, PageBatch: bits&1 != 0}
				sched.set(&opts)
				op := New(volcano.FromOIDs(w.roots), w.store, w.tmpl, opts)
				if err := op.Open(); err != nil {
					t.Fatal(err)
				}
				for {
					_, err := op.Next()
					if errors.Is(err, volcano.Done) {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					refs := append(queued(t, op.sched), op.batchq...)
					for _, r := range refs {
						switch {
						case r.Item == nil:
							t.Fatalf("%s trial %d: a queued reference was cleared (oid %v)", sched.name, trial, r.OID)
						case r.Item.emitted:
							t.Fatalf("%s trial %d: reference %v of an emitted item is still queued", sched.name, trial, r.OID)
						case !inChunk(r.Item.arena.refs, r):
							t.Fatalf("%s trial %d: queued reference %v is outside its item's chunk", sched.name, trial, r.OID)
						}
						if r.Item.aborted {
							tombstones++
						}
					}
					if cap(op.spares) != opts.Window {
						t.Fatalf("%s trial %d: room for %d spares, want the window's %d", sched.name, trial, cap(op.spares), opts.Window)
					}
					for _, sp := range op.spares {
						chunk := sp.refs
						for _, r := range refs {
							if inChunk(chunk, r) {
								t.Fatalf("%s trial %d: queued reference %v lies in a recycled chunk", sched.name, trial, r.OID)
							}
						}
						for i, r := range chunk[:cap(chunk)] {
							if r != (Ref{}) {
								t.Fatalf("%s trial %d: recycled chunk not cleared at %d", sched.name, trial, i)
							}
						}
						for i, a := range sp.assembled[:cap(sp.assembled)] {
							if a != (assembledAs{}) || len(sp.pages) != 0 {
								t.Fatalf("%s trial %d: recycled lists not cleared at %d", sched.name, trial, i)
							}
						}
					}
				}
				st := op.Stats()
				total.Aborted += st.Aborted
				total.Skipped += st.Skipped
				if err := op.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if total.Aborted == 0 || total.Skipped == 0 || tombstones == 0 {
		t.Errorf("vacuous: %d aborts, %d quarantines, %d tombstones seen queued", total.Aborted, total.Skipped, tombstones)
	}
}

// An aborted complex object is collected while the operator still runs,
// though its reference tombstones stay queued: a tombstone keeps its
// item and its page, not the partial object or its chunks. The check is
// made at the end of the input, before Close, with every dead item's
// tombstones that the schedulers never drained still held.
func TestDeadItemCollectedWhileRunning(t *testing.T) {
	aborted, tombstones := 0, 0
	for trial := 0; trial < 6; trial++ {
		for _, sched := range diffScheds {
			for bits := 0; bits < 2; bits++ {
				opts := Options{Window: 8, PageBatch: bits&1 != 0}
				sched.set(&opts)
				w := genWorld(t, rand.New(rand.NewSource(int64(1000+trial))))
				items, freed := sentinelRoots(t, w.store, w.roots)
				op := New(&forgetfulSource{items: items}, w.store, w.tmpl, opts)
				if err := op.Open(); err != nil {
					t.Fatal(err)
				}
				emitted := map[object.OID]bool{}
				for {
					it, err := op.Next()
					if errors.Is(err, volcano.Done) {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					emitted[it.(*Instance).OID()] = true
				}
				for _, r := range queued(t, op.sched) {
					if r.Item != nil && r.Item.aborted {
						tombstones++
					}
				}
				for i, r := range w.roots {
					if emitted[r] {
						continue
					}
					aborted++
					if !collected(&freed[i]) {
						t.Fatalf("%s trial %d bits %b: aborted object %v is still reachable before Close",
							sched.name, trial, bits, r)
					}
				}
				if err := op.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if aborted == 0 || tombstones == 0 {
		t.Errorf("vacuous: %d aborted objects, %d tombstones queued at the end of the input", aborted, tombstones)
	}
}

// The window slot's chunks are arrays of these structs: a component per
// template node the item owns, a Ref per node, and the window slots
// themselves. A field more moves every chunk up by its size per node,
// and a struct allocated alone (a component under a shared node, a Ref
// past its chunk) into the next size class; the message names that
// class. The paper's 7-node and the deep 31-node chunks of components
// are pinned to their size classes, and a chunk of slots to the
// 8192-byte class.
func TestArenaStructSizes(t *testing.T) {
	// The allocator's size classes up to 8192 bytes.
	classes := []uintptr{8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 240, 256,
		288, 320, 352, 384, 416, 448, 480, 512, 576, 640, 704, 768, 896, 1024, 1152, 1280, 1408, 1536, 1792,
		2048, 2304, 2688, 3072, 3200, 3456, 4096, 4864, 5376, 6144, 6528, 6784, 6912, 8192}
	classOf := func(n uintptr) uintptr {
		for _, c := range classes {
			if n <= c {
				return c
			}
		}
		return n
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Instance", unsafe.Sizeof(Instance{}), 64},
		{"component", unsafe.Sizeof(component{}), 208},
		{"Ref", unsafe.Sizeof(Ref{}), 56},
		{"workItem", unsafe.Sizeof(workItem{}), 176},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d: alone it now takes the %d-byte size class, not the %d-byte one, and every chunk of it grows by %d bytes per element",
				c.name, c.got, c.want, classOf(c.got), classOf(c.want), int(c.got)-int(c.want))
		}
	}
	for _, c := range []struct {
		name  string
		n     uintptr
		each  uintptr
		class uintptr
	}{
		{"a 7-node chunk of components", 7, unsafe.Sizeof(component{}), 1536},
		{"a 31-node chunk of components", 31, unsafe.Sizeof(component{}), 6528},
		{"a chunk of window slots", slotChunk, unsafe.Sizeof(workItem{}), 8192},
	} {
		if got := classOf(c.n * c.each); got != c.class {
			t.Errorf("%s is %d bytes, in the %d-byte size class, want the %d-byte one", c.name, c.n*c.each, got, c.class)
		}
	}
	if spare := 8192 - slotChunk*unsafe.Sizeof(workItem{}); spare >= unsafe.Sizeof(workItem{}) {
		t.Errorf("a chunk of %d window slots leaves %d bytes of its size class, room for another", slotChunk, spare)
	}
}

// shapesStore holds complex objects whose components mix classes that
// fit a component's inline block (0/0, 2/2, 4/8) with wider ones (5/8,
// 4/9), which DecodeInto sizes; pairs of neighbouring roots share their
// 4/9 component, a Shared template node. Every field outside the
// template holds a value of its own.
func shapesStore(t *testing.T) (*object.Store, *Template, []object.OID) {
	t.Helper()
	pool := buffer.New(disk.New(0), 64)
	f, err := heap.Create(pool, 8)
	if err != nil {
		t.Fatal(err)
	}
	cat := object.NewCatalog()
	class := func(name string, ints, refs int) *object.Class {
		return cat.MustDefine(&object.Class{Name: name, NumInts: ints, NumRefs: refs})
	}
	empty, small, full, wideInts, wideRefs := class("0/0", 0, 0), class("2/2", 2, 2), class("4/8", 4, 8), class("5/8", 5, 8), class("4/9", 4, 9)
	s := object.NewStore(f, object.NewMapLocator(), cat)
	rng := rand.New(rand.NewSource(44))
	next := object.OID(0)
	// put stores an object of cls whose ref field i links links[i] (the
	// rest hold OIDs no template node follows) and returns its OID.
	put := func(cls *object.Class, links map[int]object.OID) object.OID {
		next++
		o := &object.Object{OID: next, Class: cls.ID, Ints: make([]int32, cls.NumInts), Refs: make([]object.OID, cls.NumRefs)}
		for i := range o.Ints {
			o.Ints[i] = rng.Int31() - 1<<30
		}
		for i := range o.Refs {
			o.Refs[i] = object.OID(1<<40 + rng.Int63n(1<<20))
		}
		for i, oid := range links {
			o.Refs[i] = oid
		}
		if _, err := s.Put(o); err != nil {
			t.Fatal(err)
		}
		return next
	}
	var roots []object.OID
	var shared object.OID
	for i := 0; i < 8; i++ {
		if i%2 == 0 {
			shared = put(wideRefs, map[int]object.OID{8: put(empty, nil)})
		}
		a := put(small, map[int]object.OID{0: put(empty, nil), 1: put(wideInts, nil)})
		inner := put(full, map[int]object.OID{7: put(small, nil)})
		roots = append(roots, put(full, map[int]object.OID{0: a, 1: shared, 2: put(empty, nil), 3: inner}))
	}
	tmpl := &Template{Name: "Root", Class: full.ID, RefField: -1, Children: []*Template{
		{Name: "Small", Class: small.ID, RefField: 0, Children: []*Template{
			{Name: "Empty", Class: empty.ID, RefField: 0},
			{Name: "WideInts", Class: wideInts.ID, RefField: 1},
		}},
		{Name: "WideRefs", Class: wideRefs.ID, RefField: 1, Shared: true, SharingDegree: 0.5, Children: []*Template{
			{Name: "Ninth", Class: empty.ID, RefField: 8},
		}},
		{Name: "Empty", Class: empty.ID, RefField: 2},
		{Name: "Inner", Class: full.ID, RefField: 3, Children: []*Template{
			{Name: "Last", Class: small.ID, RefField: 7},
		}},
	}}
	return s, tmpl, roots
}

// Every component the operator emits, inline or wide, in its item's
// chunk or on its own, has the fields Store.Get decodes, with no spare
// capacity in Ints or Refs: an append to a component's Ints moves it
// off the component, and leaves its Refs and every other component's
// fields as they were.
func TestArenaShapes(t *testing.T) {
	for _, sharing := range []bool{false, true} {
		for _, sched := range diffScheds {
			s, tmpl, roots := shapesStore(t)
			opts := Options{Window: 3, UseSharingStats: sharing}
			sched.set(&opts)
			objs, op := assembleAll(t, s, tmpl, roots, opts)
			if len(objs) != len(roots) {
				t.Fatalf("%s sharing %v: %d of %d objects emitted", sched.name, sharing, len(objs), len(roots))
			}
			if links := op.Stats().SharedLinks; sharing != (links > 0) {
				t.Fatalf("%s sharing %v: %d shared links", sched.name, sharing, links)
			}
			components := 0
			for _, root := range objs {
				root.Walk(func(in *Instance) {
					components++
					got := in.Object
					want, err := s.Get(got.OID)
					if err != nil {
						t.Fatal(err)
					}
					if got.Class != want.Class || !slices.Equal(got.Ints, want.Ints) || !slices.Equal(got.Refs, want.Refs) {
						t.Fatalf("%s sharing %v: %s emitted as %+v, stored as %+v", sched.name, sharing, in.Node.Name, *got, *want)
					}
					if cap(got.Ints) != len(got.Ints) || cap(got.Refs) != len(got.Refs) {
						t.Fatalf("%s sharing %v: %s (%d/%d fields) has capacity %d/%d",
							sched.name, sharing, in.Node.Name, len(got.Ints), len(got.Refs), cap(got.Ints), cap(got.Refs))
					}
				})
			}
			if want := len(roots) * tmpl.Nodes(); components != want {
				t.Fatalf("%s sharing %v: %d components, want %d", sched.name, sharing, components, want)
			}
			for _, root := range objs {
				var all []*Instance
				root.Walk(func(in *Instance) { all = append(all, in) })
				for _, in := range all {
					ints := make([][]int32, len(all))
					refs := make([][]object.OID, len(all))
					for i, other := range all {
						ints[i], refs[i] = slices.Clone(other.Object.Ints), slices.Clone(other.Object.Refs)
					}
					in.Object.Ints = append(in.Object.Ints, 1<<30)
					for i, other := range all {
						got := other.Object.Ints
						if other == in {
							got = got[:len(got)-1]
						}
						if !slices.Equal(got, ints[i]) || !slices.Equal(other.Object.Refs, refs[i]) {
							t.Fatalf("%s sharing %v: an append to %s's Ints changed %s's fields", sched.name, sharing, in.Node.Name, other.Node.Name)
						}
					}
				}
			}
		}
	}
}

// Window slots come from chunks that fill a size class, whatever the
// window, and no slot is handed out twice: a scheduler may still hold
// an emitted item as a key (depth-first's stacks).
func TestSlotsComeInChunks(t *testing.T) {
	op := &Operator{Opts: Options{Window: 200}, spares: make([]spare, 0, 200)}
	seen := map[*workItem]bool{}
	for range 3 * slotChunk {
		item := op.newItem()
		if seen[item] {
			t.Fatalf("slot %p handed out again after %d slots", item, len(seen))
		}
		seen[item] = true
		if cap(op.slots) != int(slotChunk) {
			t.Fatalf("a chunk of %d slots, want %d", cap(op.slots), slotChunk)
		}
		op.recycle(item)
	}
}
