package assembly

import (
	"fmt"
	"slices"

	"revelation/internal/disk"
	"revelation/internal/heap"
	"revelation/internal/object"
)

// Ref is one unresolved inter-object reference in the window: "at any
// stage of assembling a complex object there may be several references
// yet to be resolved" (Section 4). The physical address is resolved at
// scheduling time so the elevator can order fetches by page.
type Ref struct {
	// OID is the referenced object.
	OID object.OID
	// RID is its physical address (from the locator).
	RID heap.RID
	// Node is the template node the reference instantiates.
	Node *Template
	// Parent is the instance whose reference field this is; nil for a
	// complex object's root reference.
	Parent *Instance
	// Slot is the index into Parent.Children to swizzle; 0 for roots.
	Slot int
	// Item is the window entry (complex object) the reference belongs
	// to. Aborted items' references are skipped lazily.
	Item *workItem
	// Attempts counts fetch attempts that failed with a transient
	// fault; the RetryFaults policy bounds it before quarantining.
	Attempts int32
	// lane is the device lane the reference's page belongs to, recorded
	// by a LaneElevator when the reference is added to it: the routing
	// question (for a fleet, a lock in the shard router) is asked once per
	// reference, and the operator groups a batch by the answer.
	lane int32
	// next chains the references pending on one page inside an
	// elevator's pendingSet; nil whenever the reference is not in one.
	// With it Ref fills the 64-byte size class exactly.
	next *Ref
}

// Page is the device page the reference resolves to.
func (r *Ref) Page() disk.PageID { return r.RID.Page }

func (r *Ref) live() bool { return r.Item == nil || !r.Item.aborted }

// Scheduler decides which unresolved reference to resolve next — the
// choice the whole paper is about. Add offers a batch of references
// (the unresolved references discovered in one newly fetched object,
// in left-to-right field order); Next picks one given the current head
// position.
type Scheduler interface {
	// Name identifies the policy in plans and benchmark tables.
	Name() string
	// Add inserts references, preserving their relative order where
	// the policy is order-sensitive. The slice belongs to the caller and
	// may be reused once Add returns.
	Add(refs ...*Ref)
	// Next removes and returns the next reference to resolve, or nil
	// when none remain. head is the device's current head position.
	Next(head disk.PageID) *Ref
	// TakeOnPage removes and returns every pending live reference
	// whose target lives on page p — the Section 4 page-batching
	// opportunity: "if requested objects are contained in a single
	// page, then only a single request should be issued to the buffer
	// manager."
	TakeOnPage(p disk.PageID) []*Ref
	// Len reports an upper bound on the pending references: the live
	// ones plus the dead ones the policy has not yet met and dropped.
	Len() int
}

// SchedulerKind selects one of the built-in policies.
type SchedulerKind int

// Built-in scheduling policies from Section 6.2 (plus the integrated
// priority policy sketched in Section 7).
const (
	// DepthFirst resolves each complex object completely before the
	// next — equivalent to object-at-a-time assembly regardless of
	// window size.
	DepthFirst SchedulerKind = iota
	// BreadthFirst resolves references in discovery order across the
	// whole window ("breadth of the window, not of a single object").
	BreadthFirst
	// Elevator resolves the reference nearest the disk head in the
	// current sweep direction (SCAN).
	Elevator
)

func (k SchedulerKind) String() string {
	switch k {
	case DepthFirst:
		return "depth-first"
	case BreadthFirst:
		return "breadth-first"
	case Elevator:
		return "elevator"
	default:
		return fmt.Sprintf("scheduler(%d)", int(k))
	}
}

// NewScheduler constructs a scheduler of the given kind.
func NewScheduler(kind SchedulerKind) Scheduler {
	switch kind {
	case BreadthFirst:
		return &breadthFirst{}
	case Elevator:
		return &elevator{dirUp: true}
	default:
		return &depthFirst{stacks: map[*workItem][]*Ref{}}
	}
}

// depthFirst keeps one stack per window item and always serves the
// oldest item, children left-to-right: exactly the traversal a
// compiled method performs, one complex object at a time. A stack's
// top is the end of its slice, so a pop clears the slot it vacates.
type depthFirst struct {
	order  []*workItem
	stacks map[*workItem][]*Ref
	n      int
}

func (s *depthFirst) Name() string { return DepthFirst.String() }

// Add pushes each item's share of the batch onto that item's stack. A
// batch arrives in left-to-right field order, so pushing it as one
// group, last reference first, keeps the leftmost child on top — the
// traversal order a compiled method would use.
func (s *depthFirst) Add(refs ...*Ref) {
	for len(refs) > 0 {
		item := refs[0].Item
		stack, known := s.stacks[item]
		if !known {
			s.order = append(s.order, item)
		}
		// The operator hands over one object's references at a time, so
		// rest — the other items' share of the batch — is normally empty.
		var rest []*Ref
		for i := len(refs) - 1; i >= 0; i-- {
			if r := refs[i]; r.Item == item {
				stack = append(stack, r)
				s.n++
			} else {
				rest = append(rest, r)
			}
		}
		s.stacks[item] = stack
		slices.Reverse(rest)
		refs = rest
	}
}

func (s *depthFirst) Next(disk.PageID) *Ref {
	for len(s.order) > 0 {
		item := s.order[0]
		stack := s.stacks[item]
		for len(stack) > 0 {
			top := len(stack) - 1
			r := stack[top]
			stack[top] = nil
			stack = stack[:top]
			s.n--
			if r.live() {
				s.stacks[item] = stack
				return r
			}
		}
		delete(s.stacks, item)
		s.order[0] = nil
		s.order = s.order[1:]
	}
	return nil
}

func (s *depthFirst) Len() int { return s.n }

// TakeOnPage implements Scheduler. Depth-first honours object-at-a-
// time semantics, so batching only draws from the current (oldest)
// complex object — fetch order across objects must stay sequential.
func (s *depthFirst) TakeOnPage(p disk.PageID) []*Ref {
	if len(s.order) == 0 {
		return nil
	}
	item := s.order[0]
	stack := s.stacks[item]
	var out []*Ref
	for i := len(stack) - 1; i >= 0; i-- { // top of the stack first
		if r := stack[i]; r.live() && r.Page() == p {
			out = append(out, r)
		}
	}
	rest := stack[:0]
	for _, r := range stack {
		if r.live() && r.Page() != p {
			rest = append(rest, r)
		}
	}
	s.n -= len(stack) - len(rest)
	clear(stack[len(rest):])
	s.stacks[item] = rest
	return out
}

// breadthFirst is a FIFO over the whole window.
type breadthFirst struct {
	queue []*Ref
}

func (s *breadthFirst) Name() string { return BreadthFirst.String() }

func (s *breadthFirst) Add(refs ...*Ref) { s.queue = append(s.queue, refs...) }

func (s *breadthFirst) Next(disk.PageID) *Ref {
	for len(s.queue) > 0 {
		r := s.queue[0]
		s.queue[0] = nil
		s.queue = s.queue[1:]
		if r.live() {
			return r
		}
	}
	return nil
}

func (s *breadthFirst) Len() int { return len(s.queue) }

// TakeOnPage implements Scheduler.
func (s *breadthFirst) TakeOnPage(p disk.PageID) []*Ref {
	var out []*Ref
	rest := s.queue[:0]
	for _, r := range s.queue {
		if !r.live() {
			continue
		}
		if r.Page() == p {
			out = append(out, r)
			continue
		}
		rest = append(rest, r)
	}
	clear(s.queue[len(rest):])
	s.queue = rest
	return out
}

// elevator is the SCAN policy: it serves the pending reference nearest
// the head in the current sweep direction, reversing at the ends. With
// a dedicated device and a large window of outstanding requests this is
// the classical choice (Teorey & Pinkerton; Section 6.2). Among the
// references on one page it takes the newest when the sweep reaches the
// page going up or the head already stands on it, the oldest when it
// reaches the page going down.
type elevator struct {
	pend  pendingSet
	dirUp bool
}

func (s *elevator) Name() string { return Elevator.String() }

func (s *elevator) Add(refs ...*Ref) {
	for _, r := range refs {
		s.pend.push(r)
	}
}

func (s *elevator) Next(head disk.PageID) *Ref {
	up, okUp := s.pend.ceil(head)
	if s.dirUp && okUp {
		return s.pend.takeNewest(up)
	}
	down, okDown := s.pend.floor(head)
	switch {
	case !okUp && !okDown:
		// Nothing live is left — the direction stays as it is, however
		// many dead references the two searches just dropped.
		return nil
	case !okDown:
		s.dirUp = true
		return s.pend.takeNewest(up)
	case !okUp:
		s.dirUp = false
		return s.pend.takeOldest(down)
	case up == head:
		// Exact hits belong to the current position regardless of
		// direction; prefer them to avoid a pointless reversal.
		return s.pend.takeNewest(up)
	default:
		return s.pend.takeOldest(down)
	}
}

// peekDist reports the seek distance the next service from this
// elevator would cost, given its head, without removing anything live.
func (s *elevator) peekDist(head disk.PageID) (int64, bool) {
	up, okUp := s.pend.ceil(head)
	down, okDown := s.pend.floor(head)
	switch {
	case okUp && okDown:
		return min(int64(up-head), int64(head-down)), true
	case okUp:
		return int64(up - head), true
	case okDown:
		return int64(head - down), true
	default:
		return 0, false
	}
}

func (s *elevator) Len() int { return s.pend.n }

// TakeOnPage implements Scheduler: one bucket of the pending set.
func (s *elevator) TakeOnPage(p disk.PageID) []*Ref { return s.pend.takeAll(p) }

// PredicateFirst wraps a base policy with the Section 7 integration of
// predicates into scheduling: references whose subtree can reject the
// complex object are served before all others ("it is beneficial to
// retrieve sub-objects that have a high probability of failing a
// predicate as soon as possible", Section 4). Within each tier the
// base policy applies. Hot-tier references are served most-rejective
// subtree first, breaking ties by the base policy.
type PredicateFirst struct {
	hot, cold Scheduler
	base      string
}

// NewPredicateFirst builds a predicate-first scheduler over two fresh
// instances of the given base kind.
func NewPredicateFirst(base SchedulerKind) *PredicateFirst {
	return &PredicateFirst{
		hot:  NewScheduler(base),
		cold: NewScheduler(base),
		base: base.String(),
	}
}

// Name implements Scheduler.
func (s *PredicateFirst) Name() string { return "predicate-first/" + s.base }

// Add implements Scheduler.
func (s *PredicateFirst) Add(refs ...*Ref) {
	for i, r := range refs {
		if r.Node.subtreeRejectivity() > 0 {
			s.hot.Add(refs[i : i+1]...)
		} else {
			s.cold.Add(refs[i : i+1]...)
		}
	}
}

// Next implements Scheduler.
func (s *PredicateFirst) Next(head disk.PageID) *Ref {
	if r := s.hot.Next(head); r != nil {
		return r
	}
	return s.cold.Next(head)
}

// TakeOnPage implements Scheduler.
func (s *PredicateFirst) TakeOnPage(p disk.PageID) []*Ref {
	return append(s.hot.TakeOnPage(p), s.cold.TakeOnPage(p)...)
}

// Len implements Scheduler.
func (s *PredicateFirst) Len() int { return s.hot.Len() + s.cold.Len() }
