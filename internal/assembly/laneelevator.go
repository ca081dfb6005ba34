package assembly

import (
	"fmt"
	"math"

	"revelation/internal/disk"
)

// BatchScheduler is implemented by schedulers that can hand out, in a
// single step, a run of references for each independent device lane, so
// the operator can have every lane's run read at once — one run in
// flight per lane — while preserving each lane's own service order.
type BatchScheduler interface {
	Scheduler
	// Lanes reports how many independent lanes the scheduler sweeps.
	Lanes() int
	// LaneOf routes a page to its lane index.
	LaneOf(p disk.PageID) int
	// NextBatch removes and returns, for each non-empty lane, a run: the
	// next few live references on distinct pages, chosen one after the
	// other by that lane's own policy from where that lane's arm stands.
	// A lane's run is contiguous and lanes appear in ascending
	// index order, so the batch composition is deterministic. An empty
	// batch means no references remain. The slice is the scheduler's own
	// and valid until the next call.
	NextBatch(head disk.PageID) []*Ref
}

// LaneElevator keeps one SCAN elevator per arm of a device that names
// its arms (disk.Arms), each sweeping from its *own* arm's head, where a
// single global SCAN would drag every arm around. It serves both of the
// paper's Section 7 extensions ("At present, the assembly operator can
// only handle one device"): a database striped over several local
// devices (a multi-elevator) and one sharded over a page-service fleet
// (a shard-elevator). The operator builds it at Open for the Elevator
// policy over such a device. Next rotates across lanes with pending
// references so all arms stay busy; NextBatch exposes a run of
// references per lane so the operator can keep every lane's pipe full
// concurrently while each lane's own order stays a pure SCAN.
type LaneElevator struct {
	name   string
	laneOf func(disk.PageID) int
	lanes  []lane
	rr     int
	batch  []*Ref // NextBatch's result, reused by the next call
	// heads is the pool device's HeadOf, set at Open. Without it, or
	// where it reports no arm, a lane sweeps from the page it last
	// served.
	heads func(int) (disk.PageID, bool)
}

// lane is one device's elevator and the page it last served.
type lane struct {
	elevator
	last disk.PageID
}

// from is where lane i sweeps from: its arm's head where the device
// reports one, else the page it last served.
func (s *LaneElevator) from(i int) disk.PageID {
	if s.heads != nil {
		if h, ok := s.heads(i); ok {
			return h
		}
	}
	return s.lanes[i].last
}

// NewShardElevator builds a scheduler for n shards; shardOf routes a
// global page to its shard index (use shard.Router.ShardOf). Open builds
// its own; this serves a caller that wraps it (Options.CustomScheduler).
func NewShardElevator(n int, shardOf func(disk.PageID) int) *LaneElevator {
	return newLaneElevator("shard-elevator", n, shardOf)
}

func newLaneElevator(kind string, n int, laneOf func(disk.PageID) int) *LaneElevator {
	// A Ref keeps its lane in an int16; past that many, lanes take
	// several devices each.
	n = min(max(n, 1), math.MaxInt16)
	s := &LaneElevator{
		name:   fmt.Sprintf("%s(%d)", kind, n),
		laneOf: laneOf,
		lanes:  make([]lane, n),
		batch:  make([]*Ref, 0, n*laneRunMax),
	}
	for i := range s.lanes {
		s.lanes[i].dirUp = true
	}
	return s
}

// Name implements Scheduler.
func (s *LaneElevator) Name() string { return s.name }

// Lanes implements BatchScheduler.
func (s *LaneElevator) Lanes() int { return len(s.lanes) }

// LaneOf implements BatchScheduler.
func (s *LaneElevator) LaneOf(p disk.PageID) int { return s.laneOf(p) % len(s.lanes) }

// Add implements Scheduler.
func (s *LaneElevator) Add(refs ...*Ref) {
	for _, r := range refs {
		r.lane = int16(s.LaneOf(r.Page()))
		s.lanes[r.lane].pend.push(r)
	}
}

// Next implements Scheduler: among lanes with pending references,
// serve the one whose next service is cheapest from its own arm's head
// (shortest positioning first across arms, SCAN within an arm). Ties
// rotate round-robin so no arm starves. Concurrent callers use
// NextBatch instead.
func (s *LaneElevator) Next(disk.PageID) *Ref {
	n := len(s.lanes)
	best, bestDist, bestFrom := -1, int64(1)<<62, disk.PageID(0)
	for i := 0; i < n; i++ {
		l := (s.rr + i) % n
		from := s.from(l)
		if d, ok := s.lanes[l].peekDist(from); ok && d < bestDist {
			best, bestDist, bestFrom = l, d, from
		}
	}
	if best < 0 {
		return nil
	}
	s.rr = (best + 1) % n
	return s.lanes[best].serve(bestFrom)
}

// serve takes the lane's next reference, sweeping from page from.
func (l *lane) serve(from disk.PageID) *Ref {
	r := l.Next(from)
	if r != nil {
		l.last = r.Page()
	}
	return r
}

// A run goes to its device as one request, so a longer one spreads the
// cost of a round trip over more pages; but its references are committed
// to before the objects they fetch have been looked at, and a reference
// those objects turn up inside the run's span waits for the lane's next
// sweep — seek distance, and a few re-reads. What that costs depends on
// how much of the lane's pending set the run takes, not on its length: a
// run of four out of forty pending is cheap, four out of ten is not, and
// the end of a query, when a lane holds a handful, is where fixed runs
// lost the most. So a run takes at most one in laneRunShare of what the
// lane has pending, never less than one reference and never more than
// laneRunMax. A lane with more pending also gets the longer run, so the
// arms are served in proportion to their queues instead of in lockstep,
// which is worth more seek distance than the commitment costs.
// EXPERIMENTS.md "Runs, one frame each" has both sweeps, over the fixed
// lengths 1, 2, 4, 8 and over the share.
const (
	laneRunShare = 6
	laneRunMax   = 8
)

// runLen is how many references the lane's next run may hold.
func (l *lane) runLen() int { return min(max(l.Len()/laneRunShare, 1), laneRunMax) }

// run appends the lane's next run to batch: successive picks, the first
// from page from, as many as the lane's pending set allows (runLen),
// ended early where the next pick would be on the page just picked. An
// elevator drains a page before it moves on, so that is the only way a
// run could name a page twice, and what is left on the page is served —
// from the buffer — by the run after.
func (l *lane) run(batch []*Ref, from disk.PageID) []*Ref {
	for n := l.runLen(); n > 0; n-- {
		r := l.serve(from)
		if r == nil {
			break
		}
		batch, from = append(batch, r), r.Page()
		if l.pend.trim(from) {
			break
		}
	}
	return batch
}

// NextBatch implements BatchScheduler: a run per non-empty lane, in lane
// order, each starting at its own arm's head. The head it is passed is
// ignored, as Next ignores it — every lane sweeps from its own arm —
// which is what lets a device above several lanes report as its head
// whichever lane's page arrived last (shard.Router.Head).
func (s *LaneElevator) NextBatch(disk.PageID) []*Ref {
	// A shorter batch must not keep the last one's tail reachable.
	clear(s.batch)
	batch := s.batch[:0]
	for i := range s.lanes {
		batch = s.lanes[i].run(batch, s.from(i))
	}
	s.batch = batch
	return batch
}

// TakeOnPage implements Scheduler.
func (s *LaneElevator) TakeOnPage(p disk.PageID) []*Ref {
	return s.lanes[s.LaneOf(p)].TakeOnPage(p)
}

// Len implements Scheduler.
func (s *LaneElevator) Len() int {
	total := 0
	for i := range s.lanes {
		total += s.lanes[i].Len()
	}
	return total
}

func (s *LaneElevator) release() {
	for i := range s.lanes {
		s.lanes[i].release()
	}
}

var _ BatchScheduler = (*LaneElevator)(nil)
