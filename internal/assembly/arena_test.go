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
	"sync/atomic"
	"testing"
	"time"

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
			if leaf == nil || leaf != objs[1].ChildByName("Leaf") || leaf.RefCount() != 2 || op.Stats().SharedLinks != 1 {
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
// SkipObject quarantines, under PageBatch and ShardPrefetch.
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
				op := New(oidSource(w.roots), w.store, w.tmpl, opts)
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
					for _, chunk := range op.freeRefs {
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
