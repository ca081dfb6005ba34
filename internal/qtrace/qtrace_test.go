package qtrace

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestNilSpanIsSafe(t *testing.T) {
	var sp *Span
	sp.OnRead(7)
	sp.OnFault()
	sp.OnHit()
	sp.OnMiss()
	sp.OnIORetries(3)
	sp.OnFetch()
	sp.OnLink()
	sp.OnRefRetry()
	sp.OnStall()
	sp.OnNetSend()
	sp.OnNetRecv()
	sp.OnNetTimeout()
	sp.End()
	if sp.QID() != 0 {
		t.Error("nil span leaked identity")
	}
	if c := sp.Counters(); c != (Counters{}) {
		t.Errorf("nil span counters = %+v, want zero", c)
	}
	if child := sp.StartChild(LayerDisk, "x"); child != nil {
		t.Error("nil span produced a child")
	}
}

func TestContextPlumbing(t *testing.T) {
	if From(nil) != nil {
		t.Error("From(nil ctx) != nil")
	}
	ctx := context.Background()
	if From(ctx) != nil {
		t.Error("From(plain ctx) != nil")
	}
	if With(ctx, nil) != ctx {
		t.Error("With(ctx, nil) must return ctx unchanged")
	}
	sp, ctx2 := Start(ctx, LayerDisk, "x")
	if sp != nil || ctx2 != ctx {
		t.Error("Start with no active span must be a no-op")
	}

	c := NewCollector(4)
	tr, root := c.Begin("q")
	if tr == nil || root == nil {
		t.Fatal("Begin returned nil")
	}
	ctx = With(ctx, root)
	if From(ctx) != root {
		t.Error("From did not return the installed span")
	}
	child, cctx := Start(ctx, LayerBuffer, "fix")
	if child == nil || child == root {
		t.Fatal("Start did not open a child span")
	}
	if From(cctx) != child {
		t.Error("Start's context does not carry the child")
	}
	if child.QID() != tr.QID || root.QID() != tr.QID {
		t.Error("span QIDs disagree with the trace")
	}
}

func TestSpanTreeAndTotals(t *testing.T) {
	c := NewCollector(4)
	tr, root := c.Begin("q")
	a := root.StartChild(LayerAssembly, "assemble")
	d := a.StartChild(LayerDisk, "read")
	a.OnFetch()
	a.OnLink()
	d.OnRead(10)
	d.OnRead(0) // zero-distance read still counts a read
	root.OnHit()
	d.End()
	a.End()
	c.Finish(tr, "ok", nil)

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].id != 1 || spans[1].parentID != 1 || spans[2].parentID != spans[1].id {
		t.Error("span tree parentage wrong")
	}
	got := tr.Total()
	want := Counters{Reads: 2, SeekPages: 10, Hits: 1, Fetches: 1, Links: 1}
	if got != want {
		t.Errorf("Total = %+v, want %+v", got, want)
	}
	if tr.endNS == 0 {
		t.Error("trace not done after Finish")
	}
	if st, _ := tr.Status(); st != "ok" {
		t.Errorf("status = %q, want ok", st)
	}
}

func TestSpanBudgetTruncationKeepsSumsExact(t *testing.T) {
	c := NewCollector(4)
	tr, root := c.Begin("q")
	// Blow through the budget; every post-budget child aliases to its
	// parent, so counters still land inside the tree.
	sp := root
	for i := 0; i < maxSpans+100; i++ {
		sp = sp.StartChild(LayerDisk, "s")
		sp.OnRead(1)
	}
	if got := len(tr.Spans()); got != maxSpans {
		t.Errorf("trace holds %d spans, want cap %d", got, maxSpans)
	}
	if tr.Truncated() != 101 {
		// maxSpans-1 children fit under the root; the remaining 101
		// StartChild calls alias.
		t.Errorf("truncated = %d, want 101", tr.Truncated())
	}
	total := tr.Total()
	if total.Reads != maxSpans+100 {
		t.Errorf("reads across tree = %d, want %d (exact despite truncation)", total.Reads, maxSpans+100)
	}
}

func TestEndIsIdempotent(t *testing.T) {
	c := NewCollector(4)
	tr, root := c.Begin("q")
	sp := root.StartChild(LayerDisk, "x")
	sp.End()
	end1 := sp.endNS
	time.Sleep(time.Millisecond)
	sp.End()
	if sp.endNS != end1 {
		t.Error("second End moved the end timestamp")
	}
	c.Finish(tr, "ok", nil)
	c.Finish(tr, "error", errors.New("again")) // second finish is a no-op
	if st, _ := tr.Status(); st != "ok" {
		t.Errorf("status after double finish = %q, want ok", st)
	}
}

func TestCollectorRingAndActive(t *testing.T) {
	c := NewCollector(2)
	t1, _ := c.Begin("a")
	t2, _ := c.Begin("b")
	if t2.QID != t1.QID+1 {
		t.Errorf("qids not sequential: %d then %d", t1.QID, t2.QID)
	}
	if got := len(c.Active()); got != 2 {
		t.Fatalf("active = %d, want 2", got)
	}
	c.Finish(t1, "ok", nil)
	c.Finish(t2, "ok", nil)
	t3, _ := c.Begin("c")
	c.Finish(t3, "ok", nil)
	comp := c.Completed()
	if len(comp) != 2 {
		t.Fatalf("ring holds %d, want 2", len(comp))
	}
	// Oldest-first, and t1 has been evicted by t3.
	if comp[0] != t2 || comp[1] != t3 {
		t.Error("ring order wrong after wrap")
	}
	if got := len(c.Active()); got != 0 {
		t.Errorf("active after finishes = %d, want 0", got)
	}
	if lat := c.Latency(); lat.Count != 3 {
		t.Errorf("latency count = %d, want 3", lat.Count)
	}
}

func TestCollectorSlowLog(t *testing.T) {
	c := NewCollector(8)
	var logged []string
	c.SetSlowThreshold(time.Nanosecond, func(format string, args ...any) {
		logged = append(logged, format)
	})
	tr, root := c.Begin("slow")
	root.StartChild(LayerDisk, "read").OnRead(5)
	time.Sleep(100 * time.Microsecond)
	c.Finish(tr, "ok", nil)
	if len(c.Slow()) != 1 {
		t.Fatalf("slow log holds %d, want 1", len(c.Slow()))
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "slow query") {
		t.Errorf("slow logf not invoked: %q", logged)
	}

	fast := NewCollector(8)
	tf, _ := fast.Begin("fast") // threshold zero: nothing is slow
	fast.Finish(tf, "ok", nil)
	if len(fast.Slow()) != 0 {
		t.Error("slow log populated without a threshold")
	}
}

func TestCollectorRemote(t *testing.T) {
	c := NewCollector(4)
	if c.Remote(0, "x") != nil {
		t.Error("qid 0 must not create a remote trace")
	}
	t1 := c.Remote(42, "remote")
	if t1 == nil || !t1.Remote || t1.QID != 42 {
		t.Fatalf("remote trace wrong: %+v", t1)
	}
	if c.Remote(42, "remote") != t1 {
		t.Error("second sight of qid 42 did not reuse the trace")
	}
	// Eviction past the cap retires the oldest into the ring.
	for q := uint64(100); q < 100+remoteActiveCap; q++ {
		c.Remote(q, "remote")
	}
	if got := len(c.Active()); got != remoteActiveCap {
		t.Errorf("active = %d, want cap %d", got, remoteActiveCap)
	}
	if t1.endNS == 0 {
		t.Error("evicted remote trace not finished")
	}
	if st, _ := t1.Status(); st != "retired" {
		t.Errorf("evicted status = %q, want retired", st)
	}
}

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	tr, sp := c.Begin("x")
	if tr != nil || sp != nil {
		t.Error("nil collector Begin returned non-nil")
	}
	c.Finish(nil, "ok", nil)
	c.SetSlowThreshold(time.Second, nil)
	if c.Remote(1, "x") != nil || c.Completed() != nil || c.Active() != nil || c.Slow() != nil {
		t.Error("nil collector leaked state")
	}
	if lat := c.Latency(); lat.Count != 0 {
		t.Error("nil collector latency non-zero")
	}
}

func TestCriticalPath(t *testing.T) {
	c := NewCollector(4)
	tr, root := c.Begin("q")
	// Hand-build deterministic timings: root [0,100], assembly child
	// [10,90], disk grandchild [20,70]. Self times: serve 20, assembly
	// 30, disk 50 — disk dominates.
	a := root.StartChild(LayerAssembly, "assemble")
	d := a.StartChild(LayerDisk, "read")
	root.startNS, root.endNS = 0, 100
	a.startNS, a.endNS = 10, 90
	d.startNS, d.endNS = 20, 70
	tr.mu.Lock()
	tr.endNS = 100
	tr.status = "ok"
	tr.mu.Unlock()

	lt := CriticalPath(tr)
	if len(lt) != 3 {
		t.Fatalf("got %d layers, want 3", len(lt))
	}
	if lt[0].Layer != LayerDisk || lt[0].SelfNS != 50 {
		t.Errorf("dominant = %s/%d, want disk/50", lt[0].Layer, lt[0].SelfNS)
	}
	if lt[1].Layer != LayerAssembly || lt[1].SelfNS != 30 {
		t.Errorf("second = %s/%d, want assembly/30", lt[1].Layer, lt[1].SelfNS)
	}
	if Dominant(tr) != LayerDisk {
		t.Errorf("Dominant = %q, want disk", Dominant(tr))
	}
	var sum int64
	for _, l := range lt {
		sum += l.SelfNS
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root duration 100", sum)
	}
}

func TestCriticalPathClampsRunawayChildren(t *testing.T) {
	c := NewCollector(4)
	tr, root := c.Begin("q")
	a := root.StartChild(LayerAssembly, "assemble")
	// Child outlives the parent (e.g. a goroutine ending after the
	// request): parent self time clamps to zero instead of going
	// negative.
	root.startNS, root.endNS = 0, 50
	a.startNS, a.endNS = 10, 200
	tr.mu.Lock()
	tr.endNS = 50
	tr.mu.Unlock()
	for _, l := range CriticalPath(tr) {
		if l.SelfNS < 0 {
			t.Errorf("layer %s has negative self time %d", l.Layer, l.SelfNS)
		}
	}
}

func TestFormatCounters(t *testing.T) {
	if got := FormatCounters(Counters{}); got != "-" {
		t.Errorf("zero counters = %q, want -", got)
	}
	got := FormatCounters(Counters{Reads: 3, SeekPages: 12, Hits: 5, NetSends: 2})
	for _, want := range []string{"reads=3", "seek=12", "hits=5", "sends=2"} {
		if !strings.Contains(got, want) {
			t.Errorf("%q missing %q", got, want)
		}
	}
	if strings.Contains(got, "fault") || strings.Contains(got, "timeouts") {
		t.Errorf("%q shows zero-valued fields", got)
	}
}

// TestDisabledPathAllocs is the contract the hot path relies on: with
// no span in the context, the full instrumentation surface — lookup,
// child start, every counter hook — allocates nothing.
func TestDisabledPathAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		sp := From(ctx)
		sp.OnRead(5)
		sp.OnHit()
		sp.OnMiss()
		sp.OnNetSend()
		sp.QID()
		child, cctx := Start(ctx, LayerDisk, "read")
		child.End()
		_ = cctx
		_ = With(ctx, nil)
	})
	if allocs != 0 {
		t.Errorf("disabled tracing path allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkDisabledSpan measures the disabled-path overhead every
// Fix/ReadPage pays when tracing is off (see EXPERIMENTS.md §overhead).
func BenchmarkDisabledSpan(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := From(ctx)
		sp.OnRead(1)
		sp.OnMiss()
	}
}

// BenchmarkEnabledSpan is the traced counterpart: one context lookup
// plus two atomic adds.
func BenchmarkEnabledSpan(b *testing.B) {
	c := NewCollector(4)
	tr, root := c.Begin("bench")
	defer c.Finish(tr, "ok", nil)
	ctx := With(context.Background(), root)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := From(ctx)
		sp.OnRead(1)
		sp.OnMiss()
	}
}
