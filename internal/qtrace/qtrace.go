// Package qtrace is the per-query attribution layer: request-scoped
// span trees threaded through the stack via context.Context so every
// seek, read, fault, retry, and network hop can be charged to the
// query that caused it.
//
// The global trace layer (internal/trace) answers "what did this run
// cost"; qtrace answers "which query paid". The two are reconciled by
// an extended three-way agreement check: the sum of per-span counters
// across all query traces must equal both the global trace replay and
// the metrics registry delta (see internal/suite).
//
// Design rules, mirroring internal/trace:
//
//   - qtrace imports only the standard library and internal/trace (for
//     Hist), so disk, buffer, and pagesvc can depend on it without
//     cycles.
//   - A nil *Span is a valid no-op span: every method is nil-safe. The
//     disabled path — no span installed in the context — costs one
//     context.Value lookup plus one nil check and allocates nothing
//     (gated by BenchmarkDisabledSpan and a testing.AllocsPerRun test).
//   - Counters are plain atomics so instrumentation points never take
//     a lock; the span tree itself is only mutated under the owning
//     Trace's mutex when spans start.
//   - Wall-clock timestamps live only in spans (for /tracez timelines);
//     they never enter the deterministic JSONL event stream. Events
//     carry only the query ID (trace.Event.QID), which is itself
//     deterministic for seeded sequential workloads.
package qtrace

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Layer names used for spans. Spans reuse the trace layer constants
// where one exists; serve-level spans use LayerServe.
const (
	LayerServe    = "serve"
	LayerPlan     = "plan"
	LayerAssembly = "assembly"
	LayerBuffer   = "buffer"
	LayerDisk     = "disk"
	LayerNet      = "net"
)

// Counters is the per-span counter block. Every field is updated with
// atomic adds and read with atomic loads; Add/Load snapshot helpers
// keep the three-way test honest. The fields attribute exactly the
// quantities the global registry and trace replay already count — that
// is what makes the per-query sum comparable to the global delta.
type Counters struct {
	// Disk-layer attribution (charged by the device that performed the
	// physical access, inside its own mutex, so seek distances are
	// exact even under concurrent queries).
	Reads     int64 // physical page reads
	SeekPages int64 // head movement those reads cost, in pages
	Faults    int64 // injected I/O faults observed (transient + permanent)

	// Buffer-layer attribution.
	Hits      int64 // pool requests satisfied from a resident frame
	Misses    int64 // pool requests that required a device read
	IORetries int64 // access retries shard.Router made after transient faults

	// Assembly-layer attribution.
	Fetches    int64 // components materialized from storage
	Links      int64 // references satisfied without a fetch
	RefRetries int64 // references re-queued after a transient fault
	Stalls     int64 // admissions paused by buffer exhaustion

	// Net-layer attribution (pagesvc client).
	NetSends    int64 // request frames sent
	NetRecvs    int64 // response frames received
	NetTimeouts int64 // requests that timed out in flight

	// Shard-layer attribution (shard router).
	DegradedReads int64 // reads served by a replica or refused with the breaker open
}

// Add accumulates o into c (non-atomic; for aggregation of snapshots).
func (c *Counters) Add(o Counters) {
	c.Reads += o.Reads
	c.SeekPages += o.SeekPages
	c.Faults += o.Faults
	c.Hits += o.Hits
	c.Misses += o.Misses
	c.IORetries += o.IORetries
	c.Fetches += o.Fetches
	c.Links += o.Links
	c.RefRetries += o.RefRetries
	c.Stalls += o.Stalls
	c.NetSends += o.NetSends
	c.NetRecvs += o.NetRecvs
	c.NetTimeouts += o.NetTimeouts
	c.DegradedReads += o.DegradedReads
}

// load atomically snapshots c.
func (c *Counters) load() Counters {
	return Counters{
		Reads:         atomic.LoadInt64(&c.Reads),
		SeekPages:     atomic.LoadInt64(&c.SeekPages),
		Faults:        atomic.LoadInt64(&c.Faults),
		Hits:          atomic.LoadInt64(&c.Hits),
		Misses:        atomic.LoadInt64(&c.Misses),
		IORetries:     atomic.LoadInt64(&c.IORetries),
		Fetches:       atomic.LoadInt64(&c.Fetches),
		Links:         atomic.LoadInt64(&c.Links),
		RefRetries:    atomic.LoadInt64(&c.RefRetries),
		Stalls:        atomic.LoadInt64(&c.Stalls),
		NetSends:      atomic.LoadInt64(&c.NetSends),
		NetRecvs:      atomic.LoadInt64(&c.NetRecvs),
		NetTimeouts:   atomic.LoadInt64(&c.NetTimeouts),
		DegradedReads: atomic.LoadInt64(&c.DegradedReads),
	}
}

// Span is one node of a query's span tree. The zero pointer (nil) is a
// valid no-op span; all methods are nil-safe so instrumentation points
// need no guard beyond the method call itself.
type Span struct {
	tr       *Trace
	id       int32
	parentID int32
	layer    string
	name     string
	startNS  int64 // offset from trace start, monotonic
	endNS    int64 // 0 while open; set once by End
	c        Counters
}

// QID returns the owning query's ID, or 0 for the nil span. This is
// the value that rides trace events and pagesvc request frames.
func (s *Span) QID() uint64 {
	if s == nil {
		return 0
	}
	return s.tr.QID
}

// Counters atomically snapshots the span's counter block.
func (s *Span) Counters() Counters {
	if s == nil {
		return Counters{}
	}
	return s.c.load()
}

// Layer returns the span's layer tag ("" for nil).
func (s *Span) Layer() string {
	if s == nil {
		return ""
	}
	return s.layer
}

// Name returns the span's label ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// StartChild opens a child span under s. When the trace's span budget
// is exhausted, the parent itself is returned so counters keep
// accumulating somewhere inside the tree and per-query sums stay
// exact; the trace records the truncation.
func (s *Span) StartChild(layer, name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.newSpan(s, layer, name)
}

// End closes the span. Ending a span twice, ending the nil span, and
// ending a truncation-aliased parent early are all harmless.
func (s *Span) End() {
	if s == nil {
		return
	}
	atomic.CompareAndSwapInt64(&s.endNS, 0, s.tr.sinceNS())
}

// Attribution points. Each charges one already-globally-counted event
// to this span.

// OnRead charges one physical page read costing dist pages of head
// movement.
func (s *Span) OnRead(dist int64) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.c.Reads, 1)
	if dist > 0 {
		atomic.AddInt64(&s.c.SeekPages, dist)
	}
}

// OnFault charges one injected I/O fault.
func (s *Span) OnFault() {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.c.Faults, 1)
}

// OnHit charges one buffer-pool hit.
func (s *Span) OnHit() {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.c.Hits, 1)
}

// OnMiss charges one buffer-pool miss.
func (s *Span) OnMiss() {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.c.Misses, 1)
}

// OnIORetries charges n access retries made after transient faults.
func (s *Span) OnIORetries(n int64) {
	if s == nil || n == 0 {
		return
	}
	atomic.AddInt64(&s.c.IORetries, n)
}

// OnFetch charges one component fetch.
func (s *Span) OnFetch() {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.c.Fetches, 1)
}

// OnLink charges one fetch-free reference link.
func (s *Span) OnLink() {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.c.Links, 1)
}

// OnRefRetry charges one reference re-queued after a transient fault.
func (s *Span) OnRefRetry() {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.c.RefRetries, 1)
}

// OnStall charges one admission stall.
func (s *Span) OnStall() {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.c.Stalls, 1)
}

// OnNetSend charges one request frame.
func (s *Span) OnNetSend() {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.c.NetSends, 1)
}

// OnNetRecv charges one response frame.
func (s *Span) OnNetRecv() {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.c.NetRecvs, 1)
}

// OnNetTimeout charges one in-flight request timeout.
func (s *Span) OnNetTimeout() {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.c.NetTimeouts, 1)
}

// OnDegraded counts a read served by a shard's replica (or refused
// outright) because the shard's circuit breaker kept the primary out
// of the read path.
func (s *Span) OnDegraded() {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.c.DegradedReads, 1)
}

// maxSpans bounds one trace's span tree. Past the cap StartChild
// aliases to the parent (see Span.StartChild), so a pathological query
// cannot grow memory without bound while counter sums stay exact.
const maxSpans = 512

// Trace is one query's span tree plus identity and outcome. Spans are
// appended under mu; counters inside spans are atomics.
type Trace struct {
	// QID is the collector-assigned query ID; it is carried on trace
	// events and pagesvc request frames.
	QID uint64
	// Name describes the request ("GET /query", figure name, ...).
	Name string
	// Remote marks traces reconstructed on the server side of the
	// pagesvc wire from propagated QIDs.
	Remote bool
	// Start is the wall-clock start (display only).
	Start time.Time

	mu        sync.Mutex
	spans     []*Span
	truncated int
	status    string
	errMsg    string
	endNS     int64
}

// newTrace builds a trace with its root span.
func newTrace(qid uint64, name string, remote bool) *Trace {
	t := &Trace{QID: qid, Name: name, Remote: remote, Start: time.Now()}
	root := &Span{tr: t, id: 1, layer: LayerServe, name: name}
	t.spans = append(t.spans, root)
	return t
}

// sinceNS is the monotonic offset from trace start.
func (t *Trace) sinceNS() int64 { return int64(time.Since(t.Start)) }

// Root returns the root span.
func (t *Trace) Root() *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[0]
}

func (t *Trace) newSpan(parent *Span, layer, name string) *Span {
	now := t.sinceNS()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.truncated++
		return parent
	}
	s := &Span{
		tr:       t,
		id:       int32(len(t.spans) + 1),
		parentID: parent.id,
		layer:    layer,
		name:     name,
		startNS:  now,
	}
	t.spans = append(t.spans, s)
	return s
}

// finish stamps the outcome; idempotent.
func (t *Trace) finish(status, errMsg string) {
	end := t.sinceNS()
	t.mu.Lock()
	if t.endNS == 0 {
		t.endNS = end
		t.status = status
		t.errMsg = errMsg
	}
	t.mu.Unlock()
	t.spans[0].End()
}

// Duration is the trace's wall time: end-to-end once finished, the
// running time so far otherwise.
func (t *Trace) Duration() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.endNS != 0 {
		return time.Duration(t.endNS)
	}
	return time.Duration(t.sinceNS())
}

// Status returns the recorded outcome ("ok", "error", "timeout",
// "canceled", "shed"; "" while active) and error message.
func (t *Trace) Status() (status, errMsg string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status, t.errMsg
}

// Truncated returns how many spans were folded into their parent by
// the span budget.
func (t *Trace) Truncated() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.truncated
}

// Spans snapshots the span list in creation order (root first). The
// *Span values are shared — counters read through them are live — but
// the slice is a copy.
func (t *Trace) Spans() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Total sums the counters of every span in the trace.
func (t *Trace) Total() Counters {
	var sum Counters
	for _, s := range t.Spans() {
		sum.Add(s.Counters())
	}
	return sum
}

// Context plumbing. The active span travels in the context; From is
// the single lookup every instrumentation point performs.

type ctxKey struct{}

// With returns a context carrying sp as the active span. With(ctx,
// nil) returns ctx unchanged so disabled paths never allocate.
func With(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// From extracts the active span, nil-safely: a nil context, a context
// without a span, and a plain context.Background() all yield nil (the
// no-op span). From performs no allocation.
func From(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// Start opens a child span of the context's active span and returns it
// along with a context carrying it. With no active span this is a
// no-op: it returns (nil, ctx) without allocating.
func Start(ctx context.Context, layer, name string) (*Span, context.Context) {
	parent := From(ctx)
	if parent == nil {
		return nil, ctx
	}
	sp := parent.StartChild(layer, name)
	if sp == parent {
		return sp, ctx // span budget exhausted: stay on the parent
	}
	return sp, With(ctx, sp)
}
