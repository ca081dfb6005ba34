package assembly

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"revelation/internal/disk"
	"revelation/internal/heap"
	"revelation/internal/object"
)

// The differential tests drive a scheduler built on the ordered pending
// set and the same policy over the old sorted slice (sliceElevator)
// with one random script, and demand the same reference sequence, the
// same sweep-direction history and never a dead reference.

// diffPair is one scheduler under test next to its reference model;
// realDirs and modelDirs report every elevator's sweep direction in
// each, in the same order.
type diffPair struct {
	real, model         Scheduler
	realDirs, modelDirs func() []bool
}

// A case with heads plays its script against a device that reports where
// each lane's arm stands; the others against one that reports nothing.
var diffCases = []struct {
	name  string
	heads bool
	build func(laneOf func(disk.PageID) int, heads func(int) (disk.PageID, bool)) diffPair
}{
	{"elevator", false, func(func(disk.PageID) int, func(int) (disk.PageID, bool)) diffPair {
		r, m := &elevator{dirUp: true}, &sliceElevator{dirUp: true}
		return diffPair{r, m, func() []bool { return []bool{r.dirUp} }, func() []bool { return []bool{m.dirUp} }}
	}},
	{"multi-elevator", false, func(laneOf func(disk.PageID) int, heads func(int) (disk.PageID, bool)) diffPair {
		return lanePair(newLaneElevator("multi-elevator", 3, laneOf), laneOf, heads)
	}},
	{"shard-elevator", false, func(laneOf func(disk.PageID) int, heads func(int) (disk.PageID, bool)) diffPair {
		return lanePair(NewShardElevator(3, laneOf), laneOf, heads)
	}},
	{"multi-elevator/heads", true, func(laneOf func(disk.PageID) int, heads func(int) (disk.PageID, bool)) diffPair {
		return lanePair(newLaneElevator("multi-elevator", 3, laneOf), laneOf, heads)
	}},
	{"shard-elevator/heads", true, func(laneOf func(disk.PageID) int, heads func(int) (disk.PageID, bool)) diffPair {
		return lanePair(NewShardElevator(3, laneOf), laneOf, heads)
	}},
	{"predicate-first", false, func(func(disk.PageID) int, func(int) (disk.PageID, bool)) diffPair {
		r := NewPredicateFirst(Elevator)
		mh, mc := &sliceElevator{dirUp: true}, &sliceElevator{dirUp: true}
		m := &PredicateFirst{hot: mh, cold: mc, base: Elevator.String()}
		return diffPair{r, m,
			func() []bool { return []bool{r.hot.(*elevator).dirUp, r.cold.(*elevator).dirUp} },
			func() []bool { return []bool{mh.dirUp, mc.dirUp} }}
	}},
}

func lanePair(r *LaneElevator, laneOf func(disk.PageID) int, heads func(int) (disk.PageID, bool)) diffPair {
	r.heads = heads
	m := newSliceLanes(len(r.lanes), laneOf, heads)
	return diffPair{r, m,
		func() (d []bool) {
			for i := range r.lanes {
				d = append(d, r.lanes[i].dirUp)
			}
			return d
		},
		func() (d []bool) {
			for _, l := range m.lanes {
				d = append(d, l.dirUp)
			}
			return d
		}}
}

func TestPendingSetMatchesSortedSlice(t *testing.T) {
	for _, c := range diffCases {
		t.Run(c.name, func(t *testing.T) {
			f := func(seed int64) bool { return runDiffScript(t, seed, c.heads, c.build) }
			cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(14))}
			if testing.Short() {
				cfg.MaxCount = 60
			}
			longRuns = 0
			if err := quick.Check(f, cfg); err != nil {
				t.Error(err)
			}
			if _, lanes := c.build(func(disk.PageID) int { return 0 }, nil).real.(BatchScheduler); lanes && longRuns < cfg.MaxCount/4 {
				t.Errorf("only %d runs of several references in %d scripts", longRuns, cfg.MaxCount)
			}
		})
	}
}

// longRuns counts the runs of more than one reference soundBatch has
// seen, so that the differential test can tell it compared some.
var longRuns int

// soundBatch checks what a batch promises beyond its references: each
// lane's run is in one piece, lanes ascend, no run names a page twice or
// is longer than lens allows it, every reference carries its lane, and
// nothing of an earlier, longer batch is reachable behind this one.
func soundBatch(fail func(string, ...any) bool, s *LaneElevator, batch []*Ref, lens []int) bool {
	pages := map[disk.PageID]bool{}
	lane, n := -1, 0
	for i, r := range batch {
		if got := s.LaneOf(r.Page()); int(r.lane) != got {
			return fail("NextBatch[%d]: page %d carries lane %d, LaneOf says %d", i, r.Page(), r.lane, got)
		}
		switch {
		case int(r.lane) < lane:
			return fail("NextBatch[%d]: lane %d after lane %d", i, r.lane, lane)
		case int(r.lane) > lane:
			lane, n = int(r.lane), 0
			clear(pages)
		}
		if n++; n == 2 {
			longRuns++
		}
		if n > lens[lane] {
			return fail("NextBatch: lane %d's run is longer than %d", lane, lens[lane])
		}
		if pages[r.Page()] {
			return fail("NextBatch[%d]: page %d twice in lane %d's run", i, r.Page(), lane)
		}
		pages[r.Page()] = true
	}
	for i, r := range batch[len(batch):cap(batch)] {
		if r != nil {
			return fail("NextBatch: a reference of an earlier batch is still reachable %d past the end", i)
		}
	}
	return true
}

// runDiffScript plays one seeded script against both schedulers. With
// heads, the script also moves the lanes' arms now and then, and takes
// one away or gives it back; without, it draws exactly what it did
// before there were heads.
func runDiffScript(t *testing.T, seed int64, withHeads bool, build func(func(disk.PageID) int, func(int) (disk.PageID, bool)) diffPair) bool {
	rng := rand.New(rand.NewSource(seed))
	// Device sizes around the bitmap's word and leaf boundaries, one
	// past the first summary word (64 leaves = 4096 pages), one large.
	sizes := []int{1, 2, 64, 65, 1000, 4096, 4097, 300000}
	pages := sizes[rng.Intn(len(sizes))]
	// Lane 2 sees only every 97th page: a sparse subset of the device.
	laneOf := func(p disk.PageID) int {
		if p%97 == 0 {
			return 2
		}
		return int(p/8) % 2
	}
	var arms [3]disk.PageID
	var armed [3]bool
	var heads func(int) (disk.PageID, bool)
	if withHeads {
		heads = func(i int) (disk.PageID, bool) { return arms[i], armed[i] }
	}
	pair := build(laneOf, heads)
	hot, cold := &Template{Name: "hot", Pred: constPred{sel: 0.1}}, &Template{Name: "cold"}
	cluster := disk.PageID(rng.Intn(pages))
	drawPage := func() disk.PageID {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return disk.PageID(pages - 1) // the device's last page
		case 2, 3, 4:
			return min(cluster+disk.PageID(rng.Intn(3)), disk.PageID(pages-1)) // duplicates
		default:
			return disk.PageID(rng.Intn(pages))
		}
	}
	items := make([]*workItem, 6)
	for i := range items {
		items[i] = &workItem{}
	}
	// A logical reference is a twin: one Ref in each scheduler (the
	// pending set links through the Ref, so they cannot share one),
	// both pointing at the same window item.
	type twin struct{ real, model *Ref }
	served := []twin{}
	twins := map[object.OID]twin{}
	nextOID := object.OID(1)
	fail := func(format string, args ...any) bool {
		t.Logf("seed %d, %d pages: "+format, append([]any{seed, pages}, args...)...)
		return false
	}
	same := func(op string, got, want []*Ref) bool {
		if len(got) != len(want) {
			return fail("%s returned %d refs, model %d", op, len(got), len(want))
		}
		for i, r := range got {
			if (r == nil) != (want[i] == nil) {
				return fail("%s[%d]: got %v, model %v", op, i, r, want[i])
			}
			if r == nil {
				continue
			}
			if r.OID != want[i].OID {
				return fail("%s[%d]: got oid %v page %d, model oid %v page %d", op, i, r.OID, r.Page(), want[i].OID, want[i].Page())
			}
			if !r.live() {
				return fail("%s[%d]: dead ref %v returned", op, i, r.OID)
			}
			if r.next != nil {
				return fail("%s[%d]: served ref %v still chained", op, i, r.OID)
			}
			served = append(served, twins[r.OID])
		}
		if fmt.Sprint(pair.realDirs()) != fmt.Sprint(pair.modelDirs()) {
			return fail("after %s: directions %v, model %v", op, pair.realDirs(), pair.modelDirs())
		}
		if pair.real.Len() < pair.model.Len() {
			return fail("after %s: Len %d below the model's %d", op, pair.real.Len(), pair.model.Len())
		}
		return true
	}
	head := disk.PageID(0)
	drawHead := func() disk.PageID {
		if rng.Intn(4) == 0 {
			return disk.PageID(rng.Intn(pages + 2)) // up to one past the end
		}
		return head
	}
	next := func() (bool, bool) {
		h := drawHead()
		r, m := pair.real.Next(h), pair.model.Next(h)
		if r != nil {
			head = r.Page()
		}
		return same(fmt.Sprintf("Next(%d)", h), []*Ref{r}, []*Ref{m}), r != nil
	}
	for step := rng.Intn(400); step > 0; step-- {
		ok := true
		if withHeads && rng.Intn(3) == 0 {
			i := rng.Intn(len(arms))
			if arms[i] = drawHead(); rng.Intn(2) == 0 {
				arms[i] = drawPage()
			}
			armed[i] = rng.Intn(4) != 0
		}
		switch op := rng.Intn(12); {
		case op < 4: // a batch, as one fetched object's references arrive
			var rb, mb []*Ref
			for n := 1 + rng.Intn(4); n > 0; n-- {
				node := cold
				if rng.Intn(3) == 0 {
					node = hot
				}
				proto := Ref{OID: nextOID, RID: heap.RID{Page: drawPage()}, Node: node, Item: items[rng.Intn(len(items))]}
				nextOID++
				r, m := proto, proto
				twins[proto.OID] = twin{&r, &m}
				rb, mb = append(rb, &r), append(mb, &m)
			}
			pair.real.Add(rb...)
			pair.model.Add(mb...)
		case op < 8:
			ok, _ = next()
		case op == 8:
			p := head
			if rng.Intn(2) == 0 {
				p = drawPage()
			}
			ok = same(fmt.Sprintf("TakeOnPage(%d)", p), pair.real.TakeOnPage(p), pair.model.TakeOnPage(p))
		case op == 9: // a complex object aborts mid-stream
			items[rng.Intn(len(items))].aborted = true
			if rng.Intn(3) == 0 { // and a fresh one takes its slot
				items[rng.Intn(len(items))] = &workItem{}
			}
		case op == 10: // a transient fault re-queues a served reference
			if len(served) > 0 {
				i := rng.Intn(len(served))
				tw := served[i]
				served = append(served[:i], served[i+1:]...)
				pair.real.Add(tw.real)
				pair.model.Add(tw.model)
			}
		default:
			rb, isBatch := pair.real.(BatchScheduler)
			if !isBatch {
				continue
			}
			// A run is at most a laneRunShare-th of what its lane holds.
			le := rb.(*LaneElevator)
			lens := make([]int, len(le.lanes))
			for i := range lens {
				lens[i] = le.lanes[i].runLen()
			}
			batch := rb.NextBatch(head)
			ok = same("NextBatch", batch, pair.model.(*sliceLanes).NextBatch(lens)) && soundBatch(fail, le, batch, lens)
		}
		if !ok {
			return false
		}
	}
	for more := true; more; {
		var ok bool
		if ok, more = next(); !ok {
			return false
		}
	}
	if pair.real.Len() != 0 {
		return fail("drained, yet Len is %d", pair.real.Len())
	}
	return true
}
