package buffer

import (
	"revelation/internal/disk"
	"revelation/internal/trace"
)

// Replacement: which frame a miss gets. An empty frame goes first,
// lowest index first; with none left, the unpinned frame with the
// smallest stamp, passing over sticky frames unless every candidate is
// sticky — exact LRU, and since stamps are unique and only grow, the
// frame a scan of the whole pool would pick (DESIGN.md §6).
//
// Resident frames are queued under keys that only a miss brings up to
// date. An entry's key is its frame's stamp when the entry was placed;
// a hit moves the stamp and leaves the entry alone, so key <= stamp.
// The entries are split between two structures with one order:
//
//   - The admission queue (Pool.queue), a ring in admission order.
//     admitLocked keys a frame with the pool's newest tick, larger than
//     every key queued anywhere, so pushing it at the tail keeps the
//     ring in key order with no sift: push and pop are O(1).
//   - The heap (Pool.lru), a binary min-heap for every entry placed
//     under an older key: a queue head a hit made stale, re-keyed by its
//     stamp; a frame Unfix queues again after a search dropped it
//     pinned; a victim whose flush failed; a frame SetSticky un-parks.
//
// The smaller of the two tops is the smallest key queued — keys are
// unique, so it is the one entry a single heap of them all would have on
// top — and its frame has the smallest stamp when its key equals its
// stamp. A search looks only at that entry: pinned, the entry is dropped
// (Unfix puts the frame in the heap at its last unpin); stale, it is
// re-keyed into the heap; sticky, the frame is parked outside both,
// where later searches do not meet it; otherwise it is the victim.
// Every parked frame is sticky — SetSticky queues one again the moment
// its hint is cleared — so when both run out the candidates left are
// the parked frames, and the smallest stamp among them goes.

// Where the replacer keeps a resident frame (Frame.place).
const (
	placeNone   int8 = iota // nowhere: pinned when a search met it, or empty
	placeQueue              // an entry in Pool.queue
	placeHeap               // an entry in Pool.lru
	placeParked             // Pool.parked[Frame.slot]
)

// lruEntry is a resident frame's place in the admission queue or the
// victim heap. The key sits beside the pointer so that sifting reads
// the slice only.
type lruEntry struct {
	key int64 // f.stamp when the entry was placed
	f   *Frame
}

// admitQueue is the admission queue: a ring of one entry per frame,
// keys rising from the head, the oldest entry, to the tail.
type admitQueue struct {
	ring []lruEntry
	head int // index of the head entry
	n    int // entries queued
}

// push queues f at the tail, keyed by its stamp, which must be larger
// than every key queued.
func (q *admitQueue) push(f *Frame) {
	f.place = placeQueue
	i := q.head + q.n
	if i >= len(q.ring) {
		i -= len(q.ring)
	}
	q.ring[i] = lruEntry{f.stamp, f}
	q.n++
}

// pop removes the head entry and returns its frame.
func (q *admitQueue) pop() *Frame {
	f := q.ring[q.head].f
	f.place = placeNone
	if q.head++; q.head == len(q.ring) {
		q.head = 0
	}
	q.n--
	return f
}

// pushLRU puts f in the heap, keyed by its current stamp. Kept out of
// line: Unfix calls it once in a long while, and with the body inlined
// between the last-unpin test and the return every Unfix paid for it
// (2–3 % of the write workload, EXPERIMENTS.md).
//
//go:noinline
func (p *Pool) pushLRU(f *Frame) {
	f.place = placeHeap
	h := append(p.lru, lruEntry{f.stamp, f})
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if h[up].key <= h[i].key {
			break
		}
		h[up], h[i] = h[i], h[up]
		i = up
	}
	p.lru = h
}

// popLRU removes the heap's top entry and returns its frame.
func (p *Pool) popLRU() *Frame {
	h := p.lru
	f := h[0].f
	f.place = placeNone
	last := len(h) - 1
	h[0] = h[last]
	p.lru = h[:last]
	p.siftDownLRU()
	return f
}

// siftDownLRU restores the heap after the top entry's key grew.
func (p *Pool) siftDownLRU() {
	h := p.lru
	if len(h) == 0 {
		return
	}
	e, i := h[0], 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].key < h[c].key {
			c++
		}
		if e.key <= h[c].key {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

// lruTop returns the entry with the smallest key, nil when the queue
// and the heap are both empty, and whether it is the queue's head.
func (p *Pool) lruTop() (top *lruEntry, queued bool) {
	q := &p.queue
	switch {
	case q.n > 0 && (len(p.lru) == 0 || q.ring[q.head].key < p.lru[0].key):
		return &q.ring[q.head], true
	case len(p.lru) > 0:
		return &p.lru[0], false
	}
	return nil, false
}

// popTop removes the entry lruTop returned and returns its frame.
func (p *Pool) popTop(queued bool) *Frame {
	if queued {
		return p.queue.pop()
	}
	return p.popLRU()
}

// lruVictim takes the replacement victim out of the queue, the heap or
// the parked frames, or returns nil when every resident frame is pinned.
func (p *Pool) lruVictim() *Frame {
	for top, queued := p.lruTop(); top != nil; top, queued = p.lruTop() {
		switch f := top.f; {
		case f.pins > 0:
			p.popTop(queued)
		case top.key != f.stamp && queued:
			p.pushLRU(p.queue.pop())
		case top.key != f.stamp:
			top.key = f.stamp
			p.siftDownLRU()
		case f.sticky:
			p.popTop(queued)
			f.place, f.slot = placeParked, len(p.parked)
			p.parked = append(p.parked, f)
		default:
			return p.popTop(queued)
		}
	}
	var victim *Frame
	for _, f := range p.parked {
		if f.pins == 0 && (victim == nil || f.stamp < victim.stamp) {
			victim = f
		}
	}
	if victim != nil {
		p.unpark(victim)
	}
	return victim
}

// unpark takes f out of the parked frames.
func (p *Pool) unpark(f *Frame) {
	last := len(p.parked) - 1
	moved := p.parked[last]
	p.parked[f.slot], moved.slot = moved, f.slot
	p.parked = p.parked[:last]
	f.place = placeNone
}

// victimLocked hands out a frame holding no page, evicting the LRU
// victim when none is empty. The caller admits a page to the frame or
// gives it back with emptyLocked.
func (p *Pool) victimLocked() (*Frame, error) {
	if p.empty == 0 {
		victim := p.lruVictim()
		if victim == nil {
			return nil, ErrNoFrames
		}
		if victim.dirty {
			if err := p.flushFrameLocked(victim); err != nil {
				p.pushLRU(victim)
				return nil, err
			}
		}
		if p.tr != nil {
			p.tr.Buffer(trace.KindEvict, int64(victim.id), 0, 0)
		}
		p.emptyLocked(victim)
		p.evictions.Inc()
	}
	i := p.emptyFrom
	for p.frames[i].id != disk.InvalidPage {
		i++
	}
	p.empty--
	p.emptyFrom = i + 1
	return &p.frames[i], nil
}

// emptyLocked is the one way a frame comes to hold no page: f, unpinned
// and neither queued nor parked, drops its page and joins the empty
// frames.
func (p *Pool) emptyLocked(f *Frame) {
	if f.id != disk.InvalidPage {
		p.table.del(f.id)
		f.id = disk.InvalidPage
	}
	f.dirty = false
	f.sticky = false
	if p.empty == 0 || f.index < p.emptyFrom {
		p.emptyFrom = f.index
	}
	p.empty++
}
