package assembly

import (
	"slices"
	"testing"

	"revelation/internal/disk"
	"revelation/internal/heap"
	"revelation/internal/object"
)

// growingArms is a device's arms whose width grows while a query runs,
// as a shard router's does when a member joins: arm 0 holds pages
// [0, 100) and arm 1 [100, 200) until a third arm joins and takes
// [150, 200) from arm 1. Each arm reports its own head.
type growingArms struct {
	width int
	heads [3]disk.PageID
}

func (a *growingArms) Shards() int { return a.width }

func (a *growingArms) ShardOf(p disk.PageID) int {
	if a.width > 2 && p >= 150 && p < 200 {
		return 2
	}
	return int(p) / 100
}

func (a *growingArms) HeadOf(i int) (disk.PageID, bool) {
	if i >= a.width {
		return disk.InvalidPage, false
	}
	return a.heads[i], true
}

// TestLaneElevatorFollowsAJoin: a lane elevator sized before an arm
// joined gives the joiner's pages a lane of their own, swept from the
// joiner's head (HeadOf(2)), and never mixes them into another arm's
// run.
func TestLaneElevatorFollowsAJoin(t *testing.T) {
	arms := &growingArms{width: 2, heads: [3]disk.PageID{10, 110, 190}}
	s := newLaneElevator("shard-elevator", arms.Shards(), arms.ShardOf)
	s.heads = arms.HeadOf
	item, node := &workItem{}, &Template{Name: "x"}
	ref := func(p disk.PageID) *Ref {
		return &Ref{OID: object.OID(p + 1), RID: heap.RID{Page: p}, Item: item, Node: node}
	}
	s.Add(ref(20), ref(30), ref(120), ref(130))
	arms.width = 3
	for p := disk.PageID(152); p < 200; p += 4 { // 12 references: a run of 2
		s.Add(ref(p))
	}
	if s.Lanes() != 3 {
		t.Fatalf("Lanes = %d after the join, want 3", s.Lanes())
	}
	joiner := func(r *Ref) bool { return r.Page() >= 150 && r.Page() < 200 }
	for first := true; ; first = false {
		batch := s.NextBatch(0)
		if len(batch) == 0 {
			break
		}
		var run []disk.PageID
		for _, r := range batch {
			if joiner(r) != (r.lane == 2) {
				t.Fatalf("page %d is in lane %d", r.Page(), r.lane)
			}
			if r.lane == 2 {
				run = append(run, r.Page())
			}
		}
		if want := []disk.PageID{192, 196}; first && !slices.Equal(run, want) {
			t.Errorf("the joiner's first run is %v, want %v: from its head at 190, upwards", run, want)
		}
	}
	if s.Len() != 0 {
		t.Errorf("%d references left", s.Len())
	}
}
