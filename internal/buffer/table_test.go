package buffer

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"revelation/internal/difftest"
	"revelation/internal/disk"
)

// tableErr checks the page table over frames against want, a model of
// what it should hold, or, with want nil, against the frames that hold
// a page. One walk over the slots, from an empty one so that each
// cluster is met from its first slot, checks that every taken slot is
// reachable by a probe for its own id (its home lies in its cluster, at
// or before it) and names a frame of its own that holds that page; and
// the entries must be as many as the pages. A page held by two frames
// then is either entered twice or leaves a frame out, which the count
// refuses. Without a model the walk refuses the first: no slot between
// an entry's home and the entry may hold the same id. With one, every
// page of want is probed for instead, and must be found in its frame.
// A probe per slot as well as per page, or a map of the resident pages,
// made this check, run after every step, most of the differential
// tests' time.
func tableErr(t *pageTable, frames []Frame, want map[disk.PageID]*Frame) error {
	resident := len(want)
	for id, f := range want {
		if got := t.get(id); got < 0 || &frames[got] != f {
			return fmt.Errorf("table: page %d found in frame %d, held by frame %d", id, got, f.index)
		}
	}
	for i := 0; want == nil && i < len(frames); i++ {
		if frames[i].id != disk.InvalidPage {
			resident++
		}
	}
	n := len(t.slots)
	from := slices.IndexFunc(t.slots, func(s tableSlot) bool { return s.frame == 0 })
	if n&(n-1) != 0 || from < 0 {
		return fmt.Errorf("table: %d slots, the first empty one at %d", n, from)
	}
	held := make([]bool, len(frames))
	entries, run := 0, 0 // run: the taken slots of this cluster so far
	for k := 1; k <= n; k++ {
		i := (from + k) & (n - 1)
		s := t.slots[i]
		if s.frame == 0 {
			run = 0
			continue
		}
		entries, run = entries+1, run+1
		f, home := int(s.frame)-1, t.home(s.id)
		if (i-home)&(n-1) >= run || f >= len(frames) || held[f] || frames[f].id != s.id || s.id == disk.InvalidPage {
			return fmt.Errorf("table: slot %d holds page %d (home %d) in frame %d of %d, not reachable, entered twice or not the frame's page", i, s.id, home, f, len(frames))
		}
		for j := home; want == nil && j != i; j = (j + 1) & (n - 1) {
			if t.slots[j].id == s.id {
				return fmt.Errorf("table: page %d entered in slots %d and %d", s.id, j, i)
			}
		}
		held[f] = true
	}
	if entries != resident || 2*entries > n {
		return fmt.Errorf("table: %d entries in %d slots for %d resident pages", entries, n, resident)
	}
	return nil
}

// homed returns n page ids whose home slot in t is home, smallest first.
func homed(t *pageTable, home, n int) []disk.PageID {
	var ids []disk.PageID
	for id := disk.PageID(0); len(ids) < n; id++ {
		if t.home(id) == home {
			ids = append(ids, id)
		}
	}
	return ids
}

// Removing the head, the middle or the tail of a cluster — one that
// starts in the table's last slot and wraps to its first, all of it
// homed on one slot or on consecutive ones — leaves the rest where a
// probe finds it.
func TestPageTableDeleteShiftsClusterBack(t *testing.T) {
	const frames, cluster = 7, 5
	for _, spread := range []bool{false, true} {
		for victim := 0; victim < cluster; victim++ {
			tab := newPageTable(frames)
			last := len(tab.slots) - 1
			var ids []disk.PageID
			if spread {
				// Homes last, 0, 1, …: every entry already sits at home.
				for k := 0; k < cluster; k++ {
					ids = append(ids, homed(&tab, (last+k)%len(tab.slots), 1)[0])
				}
			} else {
				ids = homed(&tab, last, cluster)
			}
			frames := make([]Frame, frames)
			want := map[disk.PageID]*Frame{}
			for k, id := range ids {
				frames[k] = Frame{id: id, index: k}
				want[id] = &frames[k]
				tab.put(id, k)
			}
			if tab.slots[last].frame == 0 || tab.slots[cluster-2].frame == 0 || tab.slots[cluster-1].frame != 0 {
				t.Fatalf("spread=%v: the cluster does not wrap the end of the %d slots", spread, len(tab.slots))
			}
			if err := tableErr(&tab, frames, want); err != nil {
				t.Fatalf("spread=%v, before any delete: %v", spread, err)
			}
			tab.del(ids[victim])
			delete(want, ids[victim])
			if err := tableErr(&tab, frames, want); err != nil {
				t.Fatalf("spread=%v, entry %d of %d deleted: %v", spread, victim, cluster, err)
			}
			if got := tab.get(ids[victim]); got >= 0 {
				t.Fatalf("spread=%v: deleted page %d still found", spread, ids[victim])
			}
			if !spread && tab.slots[cluster-2].frame != 0 {
				t.Fatalf("entry %d of %d deleted: the cluster did not close up", victim, cluster)
			}
			tab.del(ids[victim]) // a page that is not there: nothing happens
			if err := tableErr(&tab, frames, want); err != nil {
				t.Fatalf("spread=%v, absent page deleted: %v", spread, err)
			}
		}
	}
}

// TestPageTableMatchesMap: over seeded random sequences of put, get and
// del — page ids drawn so that they pile up on one home slot and on the
// slots around the end of the array, the table filled to its last frame,
// and now and then emptied frame by frame as EvictAll does and filled
// again — the table answers as a Go map does, checked slot by slot
// after every step.
func TestPageTableMatchesMap(t *testing.T) {
	sequences := difftest.Count(10000, 400)
	sizes := []int{1, 2, 7, 64, 800}
	// Per size, the ids a sequence draws from: three times the frames,
	// a third homed on the last slot, a third on the three slots around
	// the end, a third anywhere.
	pools := make([][]disk.PageID, len(sizes))
	for k, frames := range sizes {
		tab := newPageTable(frames)
		last := len(tab.slots) - 1
		ids := homed(&tab, last, frames)
		for _, home := range []int{last - 1, last, 0} {
			ids = append(ids, homed(&tab, home&last, 2*frames)[frames:frames+(frames+2)/3]...)
		}
		rng := rand.New(rand.NewSource(int64(frames)))
		for len(ids) < 3*frames+3 {
			ids = append(ids, disk.PageID(rng.Uint32()>>1))
		}
		pools[k] = ids
	}
	var longest int
	t.Parallel()
	difftest.Walk(t, 0, sequences, func(seq *difftest.Seq) {
		s := int(seq.Seed)
		nframes, ids := sizes[s%len(sizes)], pools[s%len(sizes)]
		seq.Tag = fmt.Sprintf("%d frames", nframes)
		rng := rand.New(rand.NewSource(seq.Seed))
		tab := newPageTable(nframes)
		frames := make([]Frame, nframes)
		free := make([]int, nframes) // frames holding no page
		for i := range free {
			free[i] = i
		}
		model := map[disk.PageID]*Frame{}
		var resident []disk.PageID // the model's keys, in the order they went in
		drop := func(id disk.PageID) {
			tab.del(id)
			free = append(free, model[id].index)
			delete(model, id)
		}
		steps := 40 + rng.Intn(4*nframes+40)
		if nframes == 800 {
			steps = 40 + rng.Intn(400)
		}
		fill := rng.Intn(3) == 0 // begin full, as a pool at work is
		for seq.Step = 0; seq.Step < steps; seq.Step++ {
			id := ids[rng.Intn(len(ids))]
			switch roll := rng.Intn(100); {
			case fill || roll < 45:
				if _, ok := model[id]; !ok && len(free) > 0 {
					k := rng.Intn(len(free))
					i := free[k]
					free[k] = free[len(free)-1]
					free = free[:len(free)-1]
					frames[i] = Frame{id: id, index: i}
					model[id] = &frames[i]
					tab.put(id, i)
					resident = append(resident, id)
				}
				if fill && len(free) == 0 {
					fill = false
				}
			case roll < 85:
				if len(resident) > 0 {
					i := rng.Intn(len(resident))
					if roll < 55 {
						i = 0 // the oldest: the head of whatever cluster it began
					}
					drop(resident[i])
					resident = append(resident[:i], resident[i+1:]...)
				}
			case roll < 97:
				if got, want := tab.get(id), model[id]; (got < 0) != (want == nil) || want != nil && &frames[got] != want {
					seq.Fatalf("get(%d) = %d, the map holds %+v", id, got, want)
				}
			default:
				for i := range frames { // in frame order, as EvictAll goes
					if id := frames[i].id; model[id] == &frames[i] {
						drop(id)
					}
				}
				resident, fill = resident[:0], true
			}
			if err := tableErr(&tab, frames, model); err != nil {
				seq.Fatalf("%v", err)
			}
			for i, e := range tab.slots {
				if e.frame != 0 {
					longest = max(longest, (i-tab.home(e.id))&(len(tab.slots)-1))
				}
			}
		}
	})
	t.Logf("%d sequences; an entry sat up to %d slots from its home", sequences, longest)
	if longest < 8 {
		t.Errorf("the sequences do not build clusters: no entry further than %d slots from its home", longest)
	}
}

// The table's size depends on the frames alone, never on the device.
func TestPageTableSizedByFrames(t *testing.T) {
	for _, c := range []struct{ frames, slots int }{{1, 2}, {2, 4}, {3, 8}, {7, 16}, {64, 128}, {800, 2048}, {80000, 262144}} {
		if got := len(newPageTable(c.frames).slots); got != c.slots {
			t.Errorf("%d frames: %d slots, want %d", c.frames, got, c.slots)
		}
	}
	small, large := New(blankDev{pages: 1000}, 64), New(blankDev{pages: 1000000}, 64)
	if len(small.table.slots) != len(large.table.slots) {
		t.Errorf("64 frames: %d slots over 1 000 pages, %d over 1 000 000", len(small.table.slots), len(large.table.slots))
	}
}
