package assembly

import (
	"slices"
	"sort"

	"revelation/internal/disk"
)

// sliceElevator is the elevator as it was before the ordered pending
// set: one slice sorted by page, compacted eagerly on every call. It is
// kept, unchanged, as the reference model the differential tests and
// the scaling benchmark compare the real elevator with.
type sliceElevator struct {
	refs  []*Ref // sorted by page
	dirUp bool
}

func (s *sliceElevator) Name() string { return Elevator.String() }

func (s *sliceElevator) Add(refs ...*Ref) {
	for _, r := range refs {
		i := sort.Search(len(s.refs), func(i int) bool { return s.refs[i].Page() >= r.Page() })
		s.refs = append(s.refs, nil)
		copy(s.refs[i+1:], s.refs[i:])
		s.refs[i] = r
	}
}

func (s *sliceElevator) Next(head disk.PageID) *Ref {
	s.compact()
	if len(s.refs) == 0 {
		return nil
	}
	// First pending ref at or above the head.
	i := sort.Search(len(s.refs), func(i int) bool { return s.refs[i].Page() >= head })
	var pick int
	if s.dirUp {
		if i < len(s.refs) {
			pick = i
		} else {
			s.dirUp = false
			pick = len(s.refs) - 1
		}
	} else {
		if i > 0 {
			pick = i - 1
			// Exact hits belong to the current position regardless of
			// direction; prefer them to avoid a pointless reversal.
			if i < len(s.refs) && s.refs[i].Page() == head {
				pick = i
			}
		} else {
			s.dirUp = true
			pick = 0
		}
	}
	r := s.refs[pick]
	s.refs = append(s.refs[:pick], s.refs[pick+1:]...)
	return r
}

func (s *sliceElevator) peekDist(head disk.PageID) (int64, bool) {
	s.compact()
	if len(s.refs) == 0 {
		return 0, false
	}
	i := sort.Search(len(s.refs), func(i int) bool { return s.refs[i].Page() >= head })
	best := int64(1) << 62
	if i < len(s.refs) {
		d := int64(s.refs[i].Page() - head)
		if d < best {
			best = d
		}
	}
	if i > 0 {
		d := int64(head - s.refs[i-1].Page())
		if d < best {
			best = d
		}
	}
	return best, true
}

// compact drops references of aborted complex objects.
func (s *sliceElevator) compact() {
	live := s.refs[:0]
	for _, r := range s.refs {
		if r.live() {
			live = append(live, r)
		}
	}
	s.refs = live
}

func (s *sliceElevator) Len() int { return len(s.refs) }

func (s *sliceElevator) TakeOnPage(p disk.PageID) []*Ref {
	s.compact()
	lo := sort.Search(len(s.refs), func(i int) bool { return s.refs[i].Page() >= p })
	hi := lo
	for hi < len(s.refs) && s.refs[hi].Page() == p {
		hi++
	}
	if lo == hi {
		return nil
	}
	out := append([]*Ref(nil), s.refs[lo:hi]...)
	s.refs = append(s.refs[:lo], s.refs[hi:]...)
	return out
}

// sliceLanes is the lane scheduler (MultiElevator and ShardElevator
// were this, twice) over the reference elevator. A lane sweeps from
// where heads says its arm stands, or from its last page where heads is
// nil or reports no arm.
type sliceLanes struct {
	laneOf   func(disk.PageID) int
	heads    func(int) (disk.PageID, bool)
	lanes    []*sliceElevator
	lastPage []disk.PageID
	rr       int
}

func newSliceLanes(n int, laneOf func(disk.PageID) int, heads func(int) (disk.PageID, bool)) *sliceLanes {
	m := &sliceLanes{laneOf: laneOf, heads: heads, lanes: make([]*sliceElevator, n), lastPage: make([]disk.PageID, n)}
	for i := range m.lanes {
		m.lanes[i] = &sliceElevator{dirUp: true}
	}
	return m
}

func (m *sliceLanes) Name() string { return "slice-lanes" }

// at is where the lane sweeps from next.
func (m *sliceLanes) at(lane int) disk.PageID {
	if m.heads != nil {
		if h, ok := m.heads(lane); ok {
			return h
		}
	}
	return m.lastPage[lane]
}

func (m *sliceLanes) Add(refs ...*Ref) {
	for _, r := range refs {
		m.lanes[m.laneOf(r.Page())%len(m.lanes)].Add(r)
	}
}

func (m *sliceLanes) Next(disk.PageID) *Ref {
	n := len(m.lanes)
	best, bestDist := -1, int64(1)<<62
	for i := 0; i < n; i++ {
		lane := (m.rr + i) % n
		d, ok := m.lanes[lane].peekDist(m.at(lane))
		if !ok {
			continue
		}
		if d < bestDist {
			best, bestDist = lane, d
		}
	}
	if best < 0 {
		return nil
	}
	r := m.lanes[best].Next(m.at(best))
	if r == nil {
		return nil
	}
	m.lastPage[best] = r.Page()
	m.rr = (best + 1) % n
	return r
}

// NextBatch is a run per lane, said in single picks: what up to lens[lane]
// successive picks of the lane's elevator would return with nothing added
// between them, the first from where the lane sweeps from and each next
// from the page just picked, cut short before the first pick that lands
// on a page the run already holds. Each pick is tried on a copy of the lane first,
// so a pick that is not taken leaves nothing behind, the sweep direction
// included. The lengths come from the caller because the real lanes size
// a run by what they hold, and that counts the dead references they have
// not met yet, which this model never holds.
func (m *sliceLanes) NextBatch(lens []int) []*Ref {
	var batch []*Ref
	for lane, el := range m.lanes {
		el.compact() // as the lane's Next would, picking or not
		held := map[disk.PageID]bool{}
		at := m.at(lane)
		for n := 0; n < lens[lane]; n++ {
			try := sliceElevator{refs: slices.Clone(el.refs), dirUp: el.dirUp}
			if r := try.Next(at); r == nil || held[r.Page()] {
				break
			}
			r := el.Next(at)
			at, m.lastPage[lane] = r.Page(), r.Page()
			held[r.Page()] = true
			batch = append(batch, r)
		}
	}
	return batch
}

func (m *sliceLanes) TakeOnPage(p disk.PageID) []*Ref {
	return m.lanes[m.laneOf(p)%len(m.lanes)].TakeOnPage(p)
}

func (m *sliceLanes) Len() int {
	total := 0
	for _, l := range m.lanes {
		total += l.Len()
	}
	return total
}
