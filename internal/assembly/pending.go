package assembly

import (
	"math/bits"

	"revelation/internal/disk"
)

// pendingSet is the ordered set of unresolved references under every
// elevator: one bucket per device page, found through a two-level
// bitmap over disk.PageID, so adding a reference, finding the nearest
// pending page on either side of the head and taking a page's
// references cost the same at 20 000 pending references as at 200.
//
// A bucket chains its references through Ref.next, newest first — the
// order a page-sorted slice that inserts before equal pages keeps — so
// the pick sequence is that slice's, reference for reference. Leaves of
// 64 buckets are allocated when a page of theirs is first referenced
// and kept for the set's lifetime: storage follows the 64-page regions
// a query touches, and a step in the steady state allocates nothing.
//
// References of aborted complex objects stay where they are, as
// tombstones, until a sweep meets them: ceil, floor, takeOldest and
// takeAll unlink each dead reference they pass, once, and never return
// one. Liveness only ever goes from live to dead, so dropping late what
// an eager sweep would drop early changes no pick.
type pendingSet struct {
	leaves  []*pendingLeaf // by page>>6; nil until a page of its is added
	summary []uint64       // bit l set when leaves[l] has a non-empty bucket
	n       int            // references held, live and dead
}

type pendingLeaf struct {
	bits  uint64   // bit b set when heads[b] != nil
	heads [64]*Ref // per page, chained newest first through Ref.next
}

// push adds r as the newest reference on its page.
func (s *pendingSet) push(r *Ref) {
	p := r.Page()
	l := int(p >> 6)
	if l >= len(s.leaves) {
		s.leaves = append(s.leaves, make([]*pendingLeaf, l+1-len(s.leaves))...)
		s.summary = append(s.summary, make([]uint64, l>>6+1-len(s.summary))...)
	}
	leaf := s.leaves[l]
	if leaf == nil {
		leaf = new(pendingLeaf)
		s.leaves[l] = leaf
	}
	b := p & 63
	r.next = leaf.heads[b]
	leaf.heads[b] = r
	leaf.bits |= 1 << b
	s.summary[l>>6] |= 1 << (l & 63)
	s.n++
}

// ceil reports the smallest page >= from that holds a live reference;
// on return that page's newest reference is live.
func (s *pendingSet) ceil(from disk.PageID) (disk.PageID, bool) {
	for {
		p, ok := s.nextSet(from)
		if !ok || s.trim(p) {
			return p, ok
		}
	}
}

// floor reports the largest page < before that holds a live reference;
// on return that page's newest reference is live.
func (s *pendingSet) floor(before disk.PageID) (disk.PageID, bool) {
	for {
		p, ok := s.prevSet(before)
		if !ok || s.trim(p) {
			return p, ok
		}
	}
}

// trim unlinks the dead references at the newest end of page p's
// bucket and reports whether a live one remains; an emptied bucket
// leaves the index.
func (s *pendingSet) trim(p disk.PageID) bool {
	leaf, b := s.leaves[p>>6], p&63
	r := leaf.heads[b]
	for r != nil && !r.live() {
		r = s.unlink(&leaf.heads[b])
	}
	if r == nil {
		s.clearBit(p)
	}
	return r != nil
}

// unlink removes the reference *link points at from its chain and
// returns its successor.
func (s *pendingSet) unlink(link **Ref) *Ref {
	r := *link
	*link, r.next = r.next, nil
	s.n--
	return *link
}

// takeNewest removes and returns the newest reference on page p, which
// ceil or floor has just reported live.
func (s *pendingSet) takeNewest(p disk.PageID) *Ref {
	leaf, b := s.leaves[p>>6], p&63
	r := leaf.heads[b]
	if s.unlink(&leaf.heads[b]) == nil {
		s.clearBit(p)
	}
	return r
}

// takeOldest removes and returns the oldest live reference on page p,
// which ceil or floor has just reported live. It walks the bucket —
// the references pending on this one page — dropping the dead on the
// way, so the pick ends the chain.
func (s *pendingSet) takeOldest(p disk.PageID) *Ref {
	leaf, b := s.leaves[p>>6], p&63
	link := &leaf.heads[b]
	var last **Ref // the link holding the last live reference seen
	for *link != nil {
		if r := *link; r.live() {
			last, link = link, &r.next
		} else {
			s.unlink(link)
		}
	}
	r := *last
	s.unlink(last)
	if leaf.heads[b] == nil {
		s.clearBit(p)
	}
	return r
}

// takeAll empties page p's bucket and returns its live references,
// newest first; nil when there are none.
func (s *pendingSet) takeAll(p disk.PageID) []*Ref {
	l := int(p >> 6)
	if l >= len(s.leaves) || s.leaves[l] == nil || s.leaves[l].heads[p&63] == nil {
		return nil
	}
	link := &s.leaves[l].heads[p&63]
	live := 0
	for r := *link; r != nil; r = r.next {
		if r.live() {
			live++
		}
	}
	var out []*Ref
	if live > 0 {
		out = make([]*Ref, 0, live)
	}
	for r := *link; r != nil; r = s.unlink(link) {
		if r.live() {
			out = append(out, r)
		}
	}
	s.clearBit(p)
	return out
}

func (s *pendingSet) clearBit(p disk.PageID) {
	l := int(p >> 6)
	leaf := s.leaves[l]
	leaf.bits &^= 1 << (p & 63)
	if leaf.bits == 0 {
		s.summary[l>>6] &^= 1 << (l & 63)
	}
}

// nextSet reports the smallest page >= from with a non-empty bucket.
func (s *pendingSet) nextSet(from disk.PageID) (disk.PageID, bool) {
	l := int(from >> 6)
	if l >= len(s.leaves) {
		return 0, false
	}
	if leaf := s.leaves[l]; leaf != nil {
		if w := leaf.bits >> (from & 63); w != 0 {
			return from + disk.PageID(bits.TrailingZeros64(w)), true
		}
	}
	l++ // the first leaf wholly above from
	for i := l >> 6; i < len(s.summary); i++ {
		w := s.summary[i]
		if i == l>>6 {
			w &= ^uint64(0) << (l & 63)
		}
		if w != 0 {
			l = i<<6 + bits.TrailingZeros64(w)
			return disk.PageID(l<<6 + bits.TrailingZeros64(s.leaves[l].bits)), true
		}
	}
	return 0, false
}

// prevSet reports the largest page < before with a non-empty bucket.
func (s *pendingSet) prevSet(before disk.PageID) (disk.PageID, bool) {
	if end := len(s.leaves) << 6; int(before) > end {
		before = disk.PageID(end)
	}
	if before == 0 {
		return 0, false
	}
	top := before - 1
	l := int(top >> 6)
	if leaf := s.leaves[l]; leaf != nil {
		if w := leaf.bits << (63 - top&63); w != 0 {
			return top - disk.PageID(bits.LeadingZeros64(w)), true
		}
	}
	// Leaves wholly below top's: indices < l.
	for i := (l - 1) >> 6; i >= 0; i-- {
		w := s.summary[i]
		if i == l>>6 {
			w &= 1<<(l&63) - 1
		}
		if w != 0 {
			l = i<<6 + 63 - bits.LeadingZeros64(w)
			return disk.PageID(l<<6 + 63 - bits.LeadingZeros64(s.leaves[l].bits)), true
		}
	}
	return 0, false
}
