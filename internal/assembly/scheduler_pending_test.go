package assembly

import (
	"testing"
	"time"
	"unsafe"

	"revelation/internal/disk"
	"revelation/internal/heap"
	"revelation/internal/object"
)

// Ref is allocated once per reference resolved: with the pending set's
// link it must still fit the 64-byte size class.
func TestRefFitsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Ref{}); n > 64 {
		t.Errorf("Ref is %d bytes, want <= 64", n)
	}
}

// A served reference leads to its parent instance and its window item —
// the whole graph of an object that may already have been emitted — so
// once a scheduler has handed it out, no slot of the scheduler's own
// storage may still point at it. Each policy is drained through Next
// and TakeOnPage, with a dead item's references in between, and its
// backing storage, captured while full, is inspected afterwards.
func TestServedRefsUnreachable(t *testing.T) {
	mkRefs := func() []*Ref {
		a, b, dead := &workItem{}, &workItem{}, &workItem{aborted: true}
		var refs []*Ref
		for i := 0; i < 60; i++ {
			item := []*workItem{a, b, dead}[i%3]
			refs = append(refs, &Ref{OID: object.OID(i + 1), RID: heap.RID{Page: disk.PageID(i * 7 % 40)},
				Item: item, Node: &Template{Name: "x"}})
		}
		return refs
	}
	drain := func(s Scheduler) {
		head := disk.PageID(20)
		for i := 0; ; i++ {
			r := s.Next(head)
			if r == nil {
				return
			}
			head = r.Page()
			if i%4 == 0 {
				s.TakeOnPage(head + 1)
			}
		}
	}
	allNil := func(t *testing.T, what string, slots []*Ref) {
		t.Helper()
		for i, r := range slots {
			if r != nil {
				t.Errorf("%s[%d] still holds ref %v", what, i, r.OID)
			}
		}
	}
	unchained := func(t *testing.T, refs []*Ref) {
		t.Helper()
		for _, r := range refs {
			if r.next != nil {
				t.Errorf("ref %v still chained to %v", r.OID, r.next.OID)
			}
		}
	}
	emptySet := func(t *testing.T, s *pendingSet) {
		t.Helper()
		if s.n != 0 {
			t.Errorf("pending set counts %d references", s.n)
		}
		for l, leaf := range s.leaves {
			if leaf != nil {
				if leaf.bits != 0 {
					t.Errorf("leaf %d: bits %#x", l, leaf.bits)
				}
				allNil(t, "leaf heads", leaf.heads[:])
			}
		}
		for i, w := range s.summary {
			if w != 0 {
				t.Errorf("summary[%d] = %#x", i, w)
			}
		}
	}

	t.Run("breadth-first", func(t *testing.T) {
		s := &breadthFirst{}
		s.Add(mkRefs()...)
		backing := s.queue
		drain(s)
		allNil(t, "queue", backing)
	})
	t.Run("depth-first", func(t *testing.T) {
		s := NewScheduler(DepthFirst).(*depthFirst)
		refs := mkRefs()
		for i := 0; i < len(refs); i += 3 { // batches that mix three items
			s.Add(refs[i : i+3]...)
		}
		var backing [][]*Ref
		for _, st := range s.stacks {
			backing = append(backing, st)
		}
		order := s.order
		drain(s)
		for _, st := range backing {
			allNil(t, "stack", st)
		}
		for i, item := range order {
			if item != nil {
				t.Errorf("order[%d] still holds its item", i)
			}
		}
	})
	t.Run("elevator", func(t *testing.T) {
		s := &elevator{dirUp: true}
		refs := mkRefs()
		s.Add(refs...)
		drain(s)
		emptySet(t, &s.pend)
		unchained(t, refs)
	})
	t.Run("lane elevator", func(t *testing.T) {
		s := NewShardElevator(3, func(p disk.PageID) int { return int(p) })
		refs := mkRefs()
		s.Add(refs...)
		for len(s.NextBatch(0)) > 0 {
		}
		for i := range s.lanes {
			emptySet(t, &s.lanes[i].pend)
		}
		unchained(t, refs)
	})
}

// Steady-state scheduling allocates nothing: the pending set links
// through the Ref and keeps its leaves, so Add + Next on an elevator —
// alone, under lanes, under the predicate tiers — is 0 allocs.
func TestElevatorStepAllocs(t *testing.T) {
	for _, s := range []Scheduler{
		NewScheduler(Elevator),
		NewShardElevator(2, func(p disk.PageID) int { return int(p / 8) }),
		NewPredicateFirst(Elevator),
	} {
		step := steadyScheduler(s, 2000)
		for i := 0; i < 4000; i++ { // touch every leaf the steps will use
			step()
		}
		if n := testing.AllocsPerRun(2000, step); n != 0 {
			t.Errorf("%s: Add+Next allocates %.2f per step, want 0", s.Name(), n)
		}
	}
}

// The elevator's step must not grow with the pending set: with
// compact() and a sorted slice it was linear (the slice model's step is
// ~200x slower at 20 000 pending than at 200). Best of several trials,
// so a descheduled trial cannot fail it.
func TestElevatorStepCostFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const steps = 100000
	cost := func(pending int) time.Duration {
		step := steadyScheduler(NewScheduler(Elevator), pending)
		best := time.Duration(1 << 62)
		for trial := 0; trial < 7; trial++ {
			start := time.Now()
			for i := 0; i < steps; i++ {
				step()
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	small, large := cost(200), cost(20000)
	t.Logf("%d steps: %v at 200 pending, %v at 20000", steps, small, large)
	if large > 3*small {
		t.Errorf("%d steps take %v at 20000 pending, over 3x the %v at 200", steps, large, small)
	}
}
