package buffer

import (
	"fmt"
	"testing"

	"revelation/internal/disk"
)

// checkInvariants verifies the replacement state against the frames it
// describes, between operations: the heap is a heap on its keys, the
// admission queue's keys rise from head to tail, no key is ahead of its
// frame's stamp, only sticky frames are parked, every frame a search
// could evict is queued, in the heap or parked, exactly once, the empty
// frames are counted and bounded below by emptyFrom, and the page table
// holds the resident frames, each under its page, and nothing else
// (tableErr).
func checkInvariants(tb testing.TB, p *Pool) {
	tb.Helper()
	if err := invariantErr(p); err != nil {
		tb.Fatal(err)
	}
}

func invariantErr(p *Pool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	placed := make([]int8, len(p.frames)) // by frame index: where an entry was found
	entry := func(where string, place int8, e lruEntry) error {
		switch f := e.f; {
		case placed[f.index] != placeNone:
			return fmt.Errorf("%s: frame %d queued twice", where, f.index)
		case f.place != place:
			return fmt.Errorf("%s: frame %d found there, place %d", where, f.index, f.place)
		case f.id == disk.InvalidPage:
			return fmt.Errorf("%s: empty frame %d queued", where, f.index)
		case e.key > f.stamp:
			return fmt.Errorf("%s: frame %d keyed %d, ahead of its stamp %d", where, f.index, e.key, f.stamp)
		}
		placed[e.f.index] = place
		return nil
	}
	for i, e := range p.lru {
		if i > 0 && p.lru[(i-1)/2].key > e.key {
			return fmt.Errorf("heap: key %d at %d under key %d at %d", e.key, i, p.lru[(i-1)/2].key, (i-1)/2)
		}
		if err := entry("heap", placeHeap, e); err != nil {
			return err
		}
	}
	q := &p.queue
	if len(q.ring) != len(p.frames) || q.head < 0 || q.head >= len(q.ring) || q.n < 0 || q.n > len(q.ring) {
		return fmt.Errorf("queue: head %d, %d entries in a ring of %d", q.head, q.n, len(q.ring))
	}
	for k, last := 0, int64(0); k < q.n; k++ {
		e := q.ring[(q.head+k)%len(q.ring)]
		if k > 0 && e.key <= last {
			return fmt.Errorf("queue: key %d at %d behind key %d", e.key, k, last)
		}
		if err := entry("queue", placeQueue, e); err != nil {
			return err
		}
		last = e.key
	}
	for i, f := range p.parked {
		if f.place != placeParked || f.slot != i || !f.sticky || f.id == disk.InvalidPage || placed[f.index] != placeNone {
			return fmt.Errorf("parked[%d]: frame %d, place %d, slot %d, sticky %v, page %d, found in %d", i, f.index, f.place, f.slot, f.sticky, f.id, placed[f.index])
		}
		placed[f.index] = placeParked
	}
	empty, pinned := 0, 0
	for i := range p.frames {
		f := &p.frames[i]
		if f.place != placed[i] {
			return fmt.Errorf("frame %d: place %d, found in %d", i, f.place, placed[i])
		}
		if f.pins > 0 {
			pinned++
		}
		if f.id == disk.InvalidPage {
			empty++
			if i < p.emptyFrom {
				return fmt.Errorf("frame %d is empty below emptyFrom=%d", i, p.emptyFrom)
			}
			if f.pins != 0 || f.dirty || f.sticky || f.place != placeNone {
				return fmt.Errorf("empty frame %d: pins=%d dirty=%v sticky=%v place=%d", i, f.pins, f.dirty, f.sticky, f.place)
			}
			continue
		}
		if f.pins == 0 && f.place == placeNone {
			return fmt.Errorf("frame %d (page %d) is unpinned and neither queued nor parked", i, f.id)
		}
	}
	if empty != p.empty {
		return fmt.Errorf("%d empty frames, counted %d", empty, p.empty)
	}
	if err := tableErr(&p.table, p.frames, nil); err != nil {
		return err
	}
	if int64(pinned) != p.pinned.Value() {
		return fmt.Errorf("%d pinned frames, gauge says %d", pinned, p.pinned.Value())
	}
	return nil
}

// The checker refuses a page held by two frames however the table
// enters them: under the other frame's page, under both frames, or
// under one.
func TestInvariantsRefuseAPageInTwoFrames(t *testing.T) {
	for _, entered := range []string{"other page", "both", "one"} {
		p, _ := newPool(t, 16, 4)
		for _, id := range []disk.PageID{0, 1} {
			f, err := p.Fix(id)
			if err != nil {
				t.Fatal(err)
			}
			p.Unfix(f, false)
		}
		checkInvariants(t, p)
		f1 := p.table.get(1)
		p.frames[f1].id = 0
		switch entered {
		case "both":
			p.table.del(1)
			p.table.put(0, f1)
		case "one":
			p.table.del(1)
		}
		if err := invariantErr(p); err == nil {
			t.Errorf("page 0 in two frames, entered %s: no error", entered)
		}
	}
}

// A hit makes an entry stale without touching the queue; the next
// search moves it to the heap under its stamp instead of evicting it.
func TestStaleKeyRefreshedOnMiss(t *testing.T) {
	p, _ := newPool(t, 16, 3)
	for _, id := range []disk.PageID{0, 1, 2} {
		f, err := p.Fix(id)
		if err != nil {
			t.Fatal(err)
		}
		p.Unfix(f, false)
	}
	f, _ := p.Fix(0) // page 0 heads the admission queue and is now the newest
	p.Unfix(f, false)
	if head := p.queue.ring[p.queue.head]; head.f.id != 0 || head.key == head.f.stamp || len(p.lru) != 0 {
		t.Fatalf("hit did queue work: head holds page %d, key %d, stamp %d; %d in the heap", head.f.id, head.key, head.f.stamp, len(p.lru))
	}
	for _, step := range []struct{ fix, evicts disk.PageID }{{5, 1}, {6, 2}, {7, 0}} {
		f, err := p.Fix(step.fix)
		if err != nil {
			t.Fatal(err)
		}
		p.Unfix(f, false)
		if p.Contains(step.evicts) {
			t.Fatalf("Fix(%d) did not evict page %d", step.fix, step.evicts)
		}
		checkInvariants(t, p)
	}
}

// A frame met pinned by a search leaves the heap and comes back, at
// its place in the LRU order, when its last pin goes.
func TestPinnedFrameRequeuedByUnfix(t *testing.T) {
	p, _ := newPool(t, 16, 2)
	f0, err := p.Fix(0)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := p.Fix(1)
	if err != nil {
		t.Fatal(err)
	}
	p.Unfix(f1, false)
	// Page 0 is older but pinned: the search drops it and takes page 1.
	f2, err := p.Fix(2)
	if err != nil {
		t.Fatal(err)
	}
	if f0.place != placeNone {
		t.Error("pinned frame still queued after a search met it")
	}
	checkInvariants(t, p)
	p.Unfix(f2, false)
	p.Unfix(f0, false)
	if f0.place != placeHeap {
		t.Error("frame not requeued when its pins reached zero")
	}
	checkInvariants(t, p)
	// Page 0 was used before page 2, so it goes first.
	f3, err := p.Fix(3)
	if err != nil {
		t.Fatal(err)
	}
	p.Unfix(f3, false)
	if p.Contains(0) || !p.Contains(2) {
		t.Error("requeued frame lost its place in the LRU order")
	}
}

// A sticky frame is parked by the first search that meets it and costs
// later searches nothing; clearing the hint queues it again at its
// place in the LRU order, and when every candidate is sticky the one
// used longest ago goes.
func TestStickyFrameParkedAndRequeued(t *testing.T) {
	p, _ := newPool(t, 16, 3)
	fixed := map[disk.PageID]*Frame{}
	touch := func(id disk.PageID) {
		t.Helper()
		f, err := p.Fix(id)
		if err != nil {
			t.Fatal(err)
		}
		fixed[id] = f
		p.Unfix(f, false)
		checkInvariants(t, p)
	}
	touch(0)
	touch(1)
	touch(2)
	p.SetSticky(0, true)
	p.SetSticky(1, true)
	touch(3) // meets 0 and 1, parks them, replaces 2
	if fixed[0].place != placeParked || fixed[1].place != placeParked || p.Contains(2) {
		t.Fatalf("places %d %d, page 2 resident: %v", fixed[0].place, fixed[1].place, p.Contains(2))
	}
	touch(1) // a hit on a parked frame: page 0 is now the older one
	touch(4) // replaces 3, the one candidate that is not sticky
	p.SetSticky(4, true)
	touch(5) // every candidate sticky: 0 goes, the oldest
	if p.Contains(0) || !p.Contains(1) || !p.Contains(4) {
		t.Fatal("with every candidate sticky the oldest did not go")
	}
	p.SetSticky(1, false)
	if fixed[1].place != placeHeap {
		t.Fatalf("frame not queued again when its hint was cleared: place %d", fixed[1].place)
	}
	checkInvariants(t, p)
	p.SetSticky(5, true)
	touch(6) // 1 is older than 5 and no longer sticky
	if p.Contains(1) || !p.Contains(4) || !p.Contains(5) {
		t.Fatal("requeued frame lost its place in the LRU order")
	}
}
