package assembly

import (
	"fmt"
	"testing"

	"revelation/internal/disk"
	"revelation/internal/heap"
	"revelation/internal/object"
)

// Scheduler micro-benchmarks: the paper notes the only CPU overhead of
// set-oriented assembly "lies in the maintenance of a scheduling data
// structure (list, queue or priority queue)"; these measure it.

func benchScheduler(b *testing.B, kind SchedulerKind) {
	item := &workItem{}
	node := &Template{Name: "x"}
	// Steady-state: keep ~200 refs pending (a window-50 pool), add one
	// batch of 2, serve 2.
	s := NewScheduler(kind)
	for i := 0; i < 200; i++ {
		s.Add(&Ref{OID: object.OID(i + 1), RID: heap.RID{Page: disk.PageID(i * 131 % 4096)}, Item: item, Node: node})
	}
	head := disk.PageID(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(
			&Ref{OID: object.OID(i), RID: heap.RID{Page: disk.PageID(i * 37 % 4096)}, Item: item, Node: node},
			&Ref{OID: object.OID(i), RID: heap.RID{Page: disk.PageID(i * 53 % 4096)}, Item: item, Node: node},
		)
		for j := 0; j < 2; j++ {
			if r := s.Next(head); r != nil {
				head = r.Page()
			}
		}
	}
}

func BenchmarkSchedulerDepthFirst(b *testing.B)   { benchScheduler(b, DepthFirst) }
func BenchmarkSchedulerBreadthFirst(b *testing.B) { benchScheduler(b, BreadthFirst) }

// steadyScheduler fills s with pending references spread over a 64 MB
// device and returns one steady-state step: serve the reference the
// policy picks at the head, then offer it again on another page. The
// pending count stays where it is and the step allocates nothing, so
// what it costs is the scheduling structure alone.
func steadyScheduler(s Scheduler, pending int) (step func()) {
	const pages = 1 << 14
	item, node := &workItem{}, &Template{Name: "x"}
	refs := make([]Ref, pending)
	var one [1]*Ref
	for i := range refs {
		refs[i] = Ref{OID: object.OID(i + 1), RID: heap.RID{Page: disk.PageID(i * 131 % pages)}, Item: item, Node: node}
		one[0] = &refs[i]
		s.Add(one[:]...)
	}
	head, seq := disk.PageID(0), 0
	return func() {
		r := s.Next(head)
		head = r.Page()
		seq++
		r.RID.Page = disk.PageID(seq * 37 % pages)
		one[0] = r
		s.Add(one[:]...)
	}
}

// benchSteady times the steady-state step of the scheduler mk builds
// at 200, 2000 and 20 000 pending references.
func benchSteady(b *testing.B, mk func() Scheduler) {
	for _, pending := range []int{200, 2000, 20000} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			step := steadyScheduler(mk(), pending)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// BenchmarkSchedulerElevator is the elevator's cost per step against
// the number of pending references: a window of W deep objects keeps
// W x fan-out pending, and the step must not grow with it.
func BenchmarkSchedulerElevator(b *testing.B) {
	benchSteady(b, func() Scheduler { return NewScheduler(Elevator) })
}

// BenchmarkSchedulerSliceModel is the same step on the sorted-slice
// elevator the pending set replaced (now the tests' reference model):
// linear in pending, from its compact() and its memmove.
func BenchmarkSchedulerSliceModel(b *testing.B) {
	benchSteady(b, func() Scheduler { return &sliceElevator{dirUp: true} })
}

func BenchmarkSchedulerPredicateFirst(b *testing.B) {
	item := &workItem{}
	hot := &Template{Name: "hot", Pred: constPred{sel: 0.1}}
	cold := &Template{Name: "cold"}
	s := NewPredicateFirst(Elevator)
	head := disk.PageID(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node := cold
		if i%2 == 0 {
			node = hot
		}
		s.Add(&Ref{OID: object.OID(i + 1), RID: heap.RID{Page: disk.PageID(i * 131 % 4096)}, Item: item, Node: node})
		if r := s.Next(head); r != nil {
			head = r.Page()
		}
	}
}

func BenchmarkSchedulerMultiElevator(b *testing.B) {
	item := &workItem{}
	node := &Template{Name: "x"}
	s := newLaneElevator("multi-elevator", 4, func(p disk.PageID) int { return int(p) / 8 % 4 })
	head := disk.PageID(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(&Ref{OID: object.OID(i + 1), RID: heap.RID{Page: disk.PageID(i * 131 % 4096)}, Item: item, Node: node})
		if r := s.Next(head); r != nil {
			head = r.Page()
		}
	}
}
