// Package trace is the observability substrate of the reproduction: a
// low-overhead, pluggable event-tracing and metrics layer threaded
// through the disk device (seek/read/write with head position), the
// buffer pool (hit/miss/evict/unfix), and the assembly operator
// (reference chosen, policy decision, window admit/retire,
// fault/quarantine).
//
// The paper's Section 6 argument rests entirely on measured head
// movement per scheduling policy; terminal counters say *what* a run
// cost but not *why*. This package records the per-event story as a
// deterministic JSONL stream that can be replayed (see Replay) to
// reconstruct the counters exactly — every traced benchmark becomes a
// self-checking experiment.
//
// Design rules:
//
//   - The package imports nothing from the rest of the repo, so every
//     layer can depend on it without cycles.
//   - A nil *Tracer is a valid no-op tracer: all methods are nil-safe,
//     so hot paths pay exactly one predictable branch when tracing is
//     off and no call site needs a guard.
//   - Events carry no wall-clock timestamps: the stream is a pure
//     function of the run, byte-for-byte reproducible under a fixed
//     seed.
package trace

import (
	"fmt"
	"sync"
)

// Layers. Every event belongs to exactly one.
const (
	LayerDisk     = "disk"
	LayerBuffer   = "buffer"
	LayerAssembly = "assembly"
	LayerBench    = "bench"
	LayerNet      = "net"
)

// Disk event kinds.
const (
	KindRead  = "read"  // physical page read: Page, Head (before), Dist
	KindWrite = "write" // physical page write: Page, Head (before), Dist
	KindFault = "fault" // injected I/O fault: Page, Note (transient|permanent)
)

// Buffer event kinds.
const (
	KindHit          = "hit"           // request satisfied from a resident frame
	KindMiss         = "miss"          // request that required a device read
	KindEvict        = "evict"         // frame reused for a different page
	KindFlush        = "flush"         // dirty page written back
	KindUnfix        = "unfix"         // pin released (N=1 marks the dirty bit set)
	KindChecksumFail = "checksum-fail" // page read failed checksum verification: Page
)

// Net event kinds (see internal/pagesvc). Net events carry the remote
// endpoint in the Note field.
const (
	KindSend      = "send"      // request sent to a page server: Page, Note (endpoint)
	KindRecv      = "recv"      // response received: Page, N (0 ok, 1 error), OID (pages read or written), Note (endpoint)
	KindTimeout   = "timeout"   // request timed out with no response: Page, Note (endpoint)
	KindFailover  = "failover"  // read routing switched off the primary: Note (new endpoint)
	KindReconnect = "reconnect" // endpoint connection re-established: Note (endpoint)
	KindPromote   = "promote"   // replica promoted to writable primary: N (epoch), Note (shard)
	KindMigrate   = "migrate"   // resharding cutover applied: Page (range lo), N (pages flipped), Note (new owner)
)

// Assembly event kinds.
const (
	KindAdmit      = "admit"      // complex object entered the window: OID (root)
	KindPend       = "pend"       // reference dispatched to the scheduler: OID, Page
	KindChoose     = "choose"     // scheduler picked the next reference: OID, Page, Head, Note (policy)
	KindTake       = "take"       // reference drained by same-page batching: OID, Page
	KindFetch      = "fetch"      // component materialized from storage: OID, Page
	KindLink       = "link"       // reference satisfied without a fetch: OID
	KindEmit       = "emit"       // assembled complex object passed up: OID (root)
	KindAbort      = "abort"      // complex object abandoned: Note ("" = predicate, else lifecycle reason)
	KindQuarantine = "quarantine" // complex object poisoned by an I/O fault
	KindRetry      = "retry"      // reference re-queued after a transient fault: OID, Page
	KindStall      = "stall"      // admission paused by buffer exhaustion
)

// Lifecycle abort reasons carried in the Note field of assembly abort
// events when a whole query dies rather than a single complex object:
// its deadline passed, its context was cancelled, or overload shed it.
const (
	ReasonDeadline = "deadline"
	ReasonCanceled = "canceled"
	ReasonShed     = "shed"
)

// Bench event kinds: run markers emitted by the experiment harness so a
// single trace file can hold many runs and each can be verified against
// the counters the harness reported.
const (
	KindBegin = "begin" // run start: Note (run name), N (window)
	KindEnd   = "end"   // run end: Stats (the counters the harness reported)
)

// NoPage marks page-less events in the Page/Head/Dist fields.
const NoPage = int64(-1)

// RunStats is the counter snapshot a harness reports at KindEnd; replay
// reconstructs the same quantities from the event stream and the two
// must match exactly.
type RunStats struct {
	Reads     int64 `json:"reads"`
	SeekReads int64 `json:"seek_reads"`
	SeekTotal int64 `json:"seek_total"`
	Assembled int   `json:"assembled"`
	Aborted   int   `json:"aborted"`
	Skipped   int   `json:"skipped"`
	Retries   int   `json:"retries"`
	Stalls    int   `json:"stalls"`
}

// Event is one record of the stream. The JSON field order is the struct
// order, fixed, so a seeded run marshals byte-for-byte identically.
type Event struct {
	// Seq is the tracer-assigned monotonic sequence number.
	Seq uint64 `json:"seq"`
	// Layer and Kind classify the event (constants above).
	Layer string `json:"layer"`
	Kind  string `json:"kind"`
	// Page is the device page the event concerns, or NoPage.
	Page int64 `json:"page"`
	// Head is the head position before the access (disk events) or at
	// scheduling time (choose events); NoPage elsewhere.
	Head int64 `json:"head"`
	// Dist is the head movement the event cost, in pages; NoPage when
	// not applicable.
	Dist int64 `json:"dist"`
	// OID is the object the event concerns; zero when not applicable.
	OID uint64 `json:"oid"`
	// N is a small event-specific count (window size on begin, dirty
	// flag on unfix).
	N int64 `json:"n"`
	// Note carries the policy or run name, or the fault class.
	Note string `json:"note,omitempty"`
	// Stats is attached to bench end markers only.
	Stats *RunStats `json:"stats,omitempty"`
	// QID attributes the event to a query (see internal/qtrace); zero —
	// omitted from the JSON — for work outside any query. The field
	// sits last so query-less streams stay byte-identical to pre-QID
	// traces.
	QID uint64 `json:"qid,omitempty"`
}

func (e Event) String() string {
	return fmt.Sprintf("#%d %s/%s page=%d head=%d dist=%d oid=%d n=%d %s",
		e.Seq, e.Layer, e.Kind, e.Page, e.Head, e.Dist, e.OID, e.N, e.Note)
}

// Sink consumes emitted events. Sinks are called with the tracer lock
// held, in sequence order; they must not call back into the tracer.
type Sink interface {
	Emit(e Event)
}

// Tracer assigns sequence numbers and fans events out to its sinks.
// The zero *Tracer (nil) is a no-op: every method is nil-safe, which is
// the whole overhead budget of disabled tracing — one branch per
// instrumentation point.
type Tracer struct {
	mu    sync.Mutex
	seq   uint64
	sinks []Sink
}

// New builds a tracer over the given sinks.
func New(sinks ...Sink) *Tracer {
	return &Tracer{sinks: sinks}
}

// emit assigns the sequence number and fans out.
func (t *Tracer) emit(e Event) {
	t.mu.Lock()
	t.seq++
	e.Seq = t.seq
	for _, s := range t.sinks {
		s.Emit(e)
	}
	t.mu.Unlock()
}

// Disk records a physical access: kind is KindRead or KindWrite, head
// is the position before the access. qid attributes the event to a
// query (see internal/qtrace) here and in every layer method below; 0
// means unattributed and leaves the field out of the JSON.
func (t *Tracer) Disk(kind string, page, head, dist int64, qid uint64) {
	if t == nil {
		return
	}
	t.emit(Event{Layer: LayerDisk, Kind: kind, Page: page, Head: head, Dist: dist, QID: qid})
}

// DiskFault records an injected I/O fault; class is "transient" or
// "permanent".
func (t *Tracer) DiskFault(page int64, class string, qid uint64) {
	if t == nil {
		return
	}
	t.emit(Event{Layer: LayerDisk, Kind: KindFault, Page: page, Head: NoPage, Dist: NoPage, Note: class, QID: qid})
}

// Buffer records a pool event (hit/miss/evict/flush/unfix); n carries
// the event-specific flag (dirty bit on unfix).
func (t *Tracer) Buffer(kind string, page int64, n int64, qid uint64) {
	if t == nil {
		return
	}
	t.emit(Event{Layer: LayerBuffer, Kind: kind, Page: page, Head: NoPage, Dist: NoPage, N: n, QID: qid})
}

// ChecksumFail records a page that failed checksum verification on its
// way into the buffer pool.
func (t *Tracer) ChecksumFail(page int64) {
	if t == nil {
		return
	}
	t.emit(Event{Layer: LayerBuffer, Kind: KindChecksumFail, Page: page, Head: NoPage, Dist: NoPage})
}

// Net records a page-service client or shard-router event: a request
// sent, a failover, a promotion, a cutover, or a reconnect (a response received
// has NetRecv). The endpoint travels in the note.
func (t *Tracer) Net(kind string, page int64, n int64, endpoint string, qid uint64) {
	if t == nil {
		return
	}
	t.emit(Event{Layer: LayerNet, Kind: kind, Page: page, Head: NoPage, Dist: NoPage, N: n, Note: endpoint, QID: qid})
}

// NetRecv records a response received from a page server: page is the
// (first) page the request was about, failed whether the answer was an
// error, and pages how many pages it read or wrote — zero for an error
// and for requests that carry none. The count travels in the OID field.
func (t *Tracer) NetRecv(page, pages int64, failed bool, endpoint string, qid uint64) {
	if t == nil {
		return
	}
	var n int64
	if failed {
		n = 1
	}
	t.emit(Event{Layer: LayerNet, Kind: KindRecv, Page: page, Head: NoPage, Dist: NoPage, OID: uint64(pages), N: n, Note: endpoint, QID: qid})
}

// Assembly records an operator event. page and head are NoPage when the
// event has no physical address (emit, abort, stall).
func (t *Tracer) Assembly(kind string, oid uint64, page, head int64, note string, qid uint64) {
	if t == nil {
		return
	}
	t.emit(Event{Layer: LayerAssembly, Kind: kind, Page: page, Head: head, Dist: NoPage, OID: oid, Note: note, QID: qid})
}

// BeginRun marks the start of a named experiment run; window is the
// configured window size (0 when not applicable).
func (t *Tracer) BeginRun(name string, window int) {
	if t == nil {
		return
	}
	t.emit(Event{Layer: LayerBench, Kind: KindBegin, Page: NoPage, Head: NoPage, Dist: NoPage, N: int64(window), Note: name})
}

// EndRun marks the end of the current run, attaching the counters the
// harness reported so replay can verify against them.
func (t *Tracer) EndRun(name string, rs RunStats) {
	if t == nil {
		return
	}
	stats := rs
	t.emit(Event{Layer: LayerBench, Kind: KindEnd, Page: NoPage, Head: NoPage, Dist: NoPage, Note: name, Stats: &stats})
}
