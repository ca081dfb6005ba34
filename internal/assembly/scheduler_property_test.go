package assembly

import (
	"math/rand"
	"testing"
	"testing/quick"

	"revelation/internal/disk"
	"revelation/internal/heap"
	"revelation/internal/object"
)

// Property: draining an elevator (no mid-drain additions) from any
// head position moves the simulated head at most span up + span down —
// the SCAN bound. A bad policy (random order) would move O(n·span). It
// holds with tombstones present: every third reference belongs to a
// complex object that is already aborted, every third to one that
// aborts halfway through the drain, and dead references neither are
// served nor cost the head a move.
func TestElevatorSCANBoundProperty(t *testing.T) {
	f := func(pages []uint16, headSeed uint16) bool {
		if len(pages) == 0 {
			return true
		}
		s := NewScheduler(Elevator)
		items := []*workItem{{}, {aborted: true}, {}}
		lo, hi := int64(pages[0]), int64(pages[0])
		for i, p := range pages {
			s.Add(&Ref{OID: object.OID(i + 1), RID: heap.RID{Page: disk.PageID(p)}, Item: items[i%3],
				Node: &Template{Name: "x"}})
			if int64(p) < lo {
				lo = int64(p)
			}
			if int64(p) > hi {
				hi = int64(p)
			}
		}
		head := int64(headSeed)
		if head < lo {
			lo = head
		}
		if head > hi {
			hi = head
		}
		span := hi - lo
		var moved int64
		served := map[*workItem]int{}
		for {
			if served[items[0]] == len(pages)/6 {
				items[2].aborted = true
			}
			r := s.Next(disk.PageID(head))
			if r == nil {
				break
			}
			if !r.live() {
				return false
			}
			p := int64(r.Page())
			d := p - head
			if d < 0 {
				d = -d
			}
			moved += d
			head = p
			served[r.Item]++
		}
		// Item 0 owns references 0, 3, 6, … and all of them are served.
		return served[items[0]] == (len(pages)+2)/3 && served[items[1]] == 0 &&
			s.Len() == 0 && moved <= 2*span
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: every scheduler serves every live reference exactly once,
// regardless of add/serve interleaving.
func TestSchedulersServeEverythingProperty(t *testing.T) {
	f := func(batches [][]uint16, kindSeed uint8) bool {
		kind := SchedulerKind(kindSeed % 3)
		s := NewScheduler(kind)
		item := &workItem{}
		rng := rand.New(rand.NewSource(int64(kindSeed)))
		added, served := 0, 0
		head := disk.PageID(0)
		oid := 1
		for _, batch := range batches {
			var refs []*Ref
			for _, p := range batch {
				refs = append(refs, &Ref{OID: object.OID(oid), RID: heap.RID{Page: disk.PageID(p)},
					Item: item, Node: &Template{Name: "x"}})
				oid++
			}
			s.Add(refs...)
			added += len(refs)
			// Serve a random number between batches.
			for i := rng.Intn(len(batch) + 1); i > 0; i-- {
				if r := s.Next(head); r != nil {
					served++
					head = r.Page()
				}
			}
		}
		for {
			r := s.Next(head)
			if r == nil {
				break
			}
			served++
			head = r.Page()
		}
		return served == added && s.Next(head) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: PredicateFirst serves all hot-tier (rejective-subtree)
// references before any cold ones that were present at the same time.
func TestPredicateFirstTierProperty(t *testing.T) {
	s := NewPredicateFirst(Elevator)
	item := &workItem{}
	hotNode := &Template{Name: "hot", Pred: constPred{sel: 0.1}}
	coldNode := &Template{Name: "cold"}
	for i := 0; i < 50; i++ {
		node := coldNode
		if i%2 == 0 {
			node = hotNode
		}
		s.Add(&Ref{OID: object.OID(i + 1), RID: heap.RID{Page: disk.PageID(i * 13 % 97)},
			Item: item, Node: node})
	}
	seenCold := false
	for r := s.Next(0); r != nil; r = s.Next(0) {
		if r.Node == coldNode {
			seenCold = true
		} else if seenCold {
			t.Fatal("hot reference served after a cold one")
		}
	}
}

type constPred struct{ sel float64 }

func (p constPred) Eval(*object.Object) bool { return true }
func (p constPred) Selectivity() float64     { return p.sel }
func (p constPred) String() string           { return "const" }
