package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names a span; the part before '/' is the layer (module) the
// span's time is charged to.
type spanKind uint8

const (
	spOperator spanKind = iota // root of an assembly query
	spStore                    // root of an update transaction
	spSchedAdd
	spSchedNext
	spSchedBatch
	spSchedTake
	spDiskRead
	spDiskWrite
	spNetRead
	spNetWrite
	spShardRead
	spShardWrite
	spWalAppend
	spWalSync
	spWalSyncTo
	spWalCheckpoint
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spOperator:      "assembly.operator/query",
	spStore:         "object.store/txn",
	spSchedAdd:      "assembly.sched/add",
	spSchedNext:     "assembly.sched/next",
	spSchedBatch:    "assembly.sched/next-batch",
	spSchedTake:     "assembly.sched/take-on-page",
	spDiskRead:      "disk/read",
	spDiskWrite:     "disk/write",
	spNetRead:       "pagesvc/read",
	spNetWrite:      "pagesvc/write",
	spShardRead:     "shard/read",
	spShardWrite:    "shard/write",
	spWalAppend:     "wal/append",
	spWalSync:       "wal/sync",
	spWalSyncTo:     "wal/sync-to",
	spWalCheckpoint: "wal/checkpoint",
}

func (k spanKind) String() string { return spanNames[k] }

func (k spanKind) root() bool  { return k == spOperator || k == spStore }
func (k spanKind) sched() bool { return k >= spSchedAdd && k <= spSchedTake }

// spanID indexes recorder.spans from 1; 0 means "no span".
type spanID int32

// span is one decorator call: what ran, when, under which span, for
// which query, and (for fleet members) on which lane.
type span struct {
	kind       spanKind
	lane       uint8
	parent     spanID
	query      int32
	start, end int64 // ns since the recorder's epoch
}

func (s span) dur() int64 { return s.end - s.start }

// recorder collects the spans of one counted/traced pass in memory.
// The closed-loop client is one goroutine, so the open spans of that
// goroutine form a stack and its top is the parent of whatever starts
// next; calls that arrive on other goroutines (prefetch lanes, page
// servers) carry their parent explicitly and leave the stack alone.
type recorder struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
	stack []spanID
	query int32
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span. parent 0 means "the client goroutine's innermost
// open span"; push puts the new span on that stack and must be paired
// with end(id, true) on the same goroutine.
func (r *recorder) begin(kind spanKind, lane uint8, parent spanID, push bool) spanID {
	r.mu.Lock()
	if parent == 0 && len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	r.spans = append(r.spans, span{kind: kind, lane: lane, parent: parent, query: r.query,
		start: int64(time.Since(r.epoch)), end: -1})
	id := spanID(len(r.spans))
	if push {
		r.stack = append(r.stack, id)
	}
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id spanID, pop bool) {
	end := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].end = end
	if pop {
		r.stack = r.stack[:len(r.stack)-1]
	}
	r.mu.Unlock()
}

// beginQuery opens the root span of the next query.
func (r *recorder) beginQuery(kind spanKind) spanID {
	r.mu.Lock()
	r.query++
	r.mu.Unlock()
	return r.begin(kind, 0, 0, true)
}

// kindTotals sums one span kind over a pass.
type kindTotals struct {
	count int64
	total int64 // Σ duration, ns
	self  int64 // Σ (duration − time covered by children), ns
}

// breakdown is the per-kind and top-level view of a span set.
type breakdown struct {
	kinds [numSpanKinds]kindTotals
	// The identity checked on every workload: every instant of a query
	// is the scheduler's, an I/O span's, or the operator's own.
	wall     int64 // Σ root span durations
	rootSelf int64 // Σ root self times
	sched    int64 // Σ durations of scheduler spans directly under a root
	io       int64 // time covered by the other spans directly under a root
}

// selfTimes returns, per span, its duration minus the part of that
// interval its child spans cover (children clipped to the parent, and
// overlapping children — concurrent lanes — counted once).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	order := make([]int32, 0, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
		if s.parent != 0 {
			order = append(order, int32(i))
		}
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := spans[order[a]], spans[order[b]]
		if x.parent != y.parent {
			return x.parent < y.parent
		}
		return x.start < y.start
	})
	for i := 0; i < len(order); {
		p := spans[order[i]].parent
		par := spans[p-1]
		covered, edge := int64(0), par.start
		for ; i < len(order) && spans[order[i]].parent == p; i++ {
			c := spans[order[i]]
			lo, hi := max(c.start, edge), min(c.end, par.end)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[p-1] -= covered
	}
	return self
}

// analyze folds a span set into per-kind totals and the top-level
// identity terms. It fails on a span that never ended or whose parent
// is missing — bookkeeping bugs the 1 % check could otherwise absorb.
func analyze(spans []span) (breakdown, error) {
	var b breakdown
	for i, s := range spans {
		if s.end < s.start {
			return b, fmt.Errorf("span %d (%s) never ended", i+1, s.kind)
		}
		if s.kind.root() != (s.parent == 0) {
			return b, fmt.Errorf("span %d (%s) has parent %d", i+1, s.kind, s.parent)
		}
	}
	self := selfTimes(spans)
	// ioSpans holds the non-scheduler children of roots, for the union.
	var ioSpans []span
	for i, s := range spans {
		k := &b.kinds[s.kind]
		k.count++
		k.total += s.dur()
		k.self += self[i]
		switch {
		case s.kind.root():
			b.wall += s.dur()
			b.rootSelf += self[i]
		case spans[s.parent-1].kind.root() && s.kind.sched():
			b.sched += s.dur()
		case spans[s.parent-1].kind.root():
			ioSpans = append(ioSpans, s)
		}
	}
	b.io = unionLength(ioSpans)
	return b, nil
}

// unionLength is the total time covered by at least one of the spans.
func unionLength(spans []span) int64 {
	sort.Slice(spans, func(a, b int) bool { return spans[a].start < spans[b].start })
	var covered, edge int64
	for i, s := range spans {
		if i == 0 || s.start > edge {
			covered += s.dur()
			edge = s.end
		} else if s.end > edge {
			covered += s.end - edge
			edge = s.end
		}
	}
	return covered
}

// identityError is how far sched + io + operator self is from the
// summed query wall time, as a share of the wall time.
func (b breakdown) identityError() float64 {
	return relDiff(float64(b.sched+b.io+b.rootSelf), float64(b.wall))
}

// writeSpans writes one span per line: id, parent, query, lane, name,
// start and end in ns since the pass began. README.md explains how to
// read the file.
func writeSpans(path, workload string, spans []span) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "# workload %s: id parent query lane name start_ns end_ns\n", workload)
	for i, s := range spans {
		fmt.Fprintf(w, "%d %d %d %d %s %d %d\n", i+1, s.parent, s.query, s.lane, s.kind, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
