package buffer

import (
	"fmt"
	"math/rand"
	"testing"

	"revelation/internal/disk"
)

// tableErr checks the page table over frames against what it should
// hold: every page of want found under its id in its frame, every taken
// slot reachable by a probe for its own id (so no hole lies between an
// entry and its home, and no page is entered twice), and no entry beside
// those.
func tableErr(t *pageTable, frames []Frame, want map[disk.PageID]*Frame) error {
	for id, f := range want {
		if got := t.get(id); got < 0 || &frames[got] != f {
			return fmt.Errorf("table: page %d found in frame %d, held by frame %d", id, got, f.index)
		}
	}
	entries := 0
	for i, s := range t.slots {
		if s.frame == 0 {
			continue
		}
		entries++
		if got := t.get(s.id); got != int(s.frame)-1 || got >= len(frames) {
			return fmt.Errorf("table: slot %d holds page %d (home %d) in frame %d of %d, a probe for it ends at frame %d", i, s.id, t.home(s.id), int(s.frame)-1, len(frames), got)
		}
	}
	if entries != len(want) {
		return fmt.Errorf("table: %d entries for %d resident pages", entries, len(want))
	}
	if len(t.slots)&(len(t.slots)-1) != 0 || 2*entries > len(t.slots) {
		return fmt.Errorf("table: %d entries in %d slots", entries, len(t.slots))
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
	sequences := 10000
	if testing.Short() || raceEnabled {
		sequences = 400
	}
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
	for s := 0; s < sequences; s++ {
		nframes, ids := sizes[s%len(sizes)], pools[s%len(sizes)]
		rng := rand.New(rand.NewSource(int64(s)))
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
		for step := 0; step < steps; step++ {
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
					t.Fatalf("sequence %d (%d frames), step %d: get(%d) = %d, the map holds %+v", s, nframes, step, id, got, want)
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
				t.Fatalf("sequence %d (%d frames), step %d: %v", s, nframes, step, err)
			}
			for i, e := range tab.slots {
				if e.frame != 0 {
					longest = max(longest, (i-tab.home(e.id))&(len(tab.slots)-1))
				}
			}
		}
	}
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
