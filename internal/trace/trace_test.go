package trace_test

import (
	"bytes"
	"strings"
	"testing"

	"revelation/internal/trace"
)

// TestNilTracerIsSafe pins the no-op contract: every method of a nil
// *Tracer must be callable — instrumented layers carry nil tracers by
// default and guard with at most one branch.
func TestNilTracerIsSafe(t *testing.T) {
	var tr *trace.Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	tr.Disk(trace.KindRead, 3, 0, 3, 0)
	tr.DiskFault(3, "transient", 0)
	tr.Buffer(trace.KindHit, 3, 0, 0)
	tr.Assembly(trace.KindAdmit, 1, trace.NoPage, trace.NoPage, "", 0)
	tr.BeginRun("r", 1)
	tr.EndRun("r", trace.RunStats{})
	if tr.Counts() != nil {
		t.Error("nil tracer returned counts")
	}
}

// TestWriterRoundTrip pins the JSONL wire format: events written by a
// Writer come back identical through ReadAll, in order, including the
// end-marker's embedded RunStats.
func TestWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	tr := trace.New(w)
	tr.BeginRun("roundtrip", 7)
	tr.Disk(trace.KindRead, 12, 4, 8, 0)
	tr.Buffer(trace.KindMiss, 12, 0, 0)
	tr.Assembly(trace.KindAdmit, 42, trace.NoPage, trace.NoPage, "", 0)
	rs := trace.RunStats{Reads: 1, SeekReads: 8, SeekTotal: 8}
	tr.EndRun("roundtrip", rs)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	events, err := trace.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(events) != 5 {
		t.Fatalf("got %d events, want 5", len(events))
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
	}
	if e := events[1]; e.Layer != trace.LayerDisk || e.Kind != trace.KindRead || e.Page != 12 || e.Head != 4 || e.Dist != 8 {
		t.Errorf("disk event mangled: %+v", e)
	}
	last := events[4]
	if last.Stats == nil || *last.Stats != rs {
		t.Errorf("end marker stats mangled: %+v", last.Stats)
	}
	// The stream must be line-delimited JSON with fields in declaration
	// order — the stable schema asmtrace and the golden tests rely on.
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	if !strings.HasPrefix(first, `{"seq":1,"layer":"bench","kind":"begin"`) {
		t.Errorf("unexpected field order: %s", first)
	}
}

// TestSplitRunsVerify exercises run segmentation: named runs split on
// markers, stray events land in an unnamed run, and Verify flags a
// forged end marker.
func TestSplitRunsVerify(t *testing.T) {
	col := &trace.Collector{}
	tr := trace.New(col)
	tr.Disk(trace.KindRead, 1, 0, 1, 0) // before any run
	tr.BeginRun("a", 2)
	tr.Disk(trace.KindRead, 5, 1, 4, 0)
	tr.EndRun("a", trace.RunStats{Reads: 1, SeekReads: 4, SeekTotal: 4})
	tr.BeginRun("b", 3)
	tr.Disk(trace.KindRead, 9, 5, 4, 0)
	tr.EndRun("b", trace.RunStats{Reads: 99}) // forged

	runs := trace.SplitRuns(col.Events())
	if len(runs) != 3 {
		t.Fatalf("got %d runs, want 3", len(runs))
	}
	if runs[0].Name != "" || len(runs[0].Events) != 1 {
		t.Errorf("unnamed prelude run wrong: %+v", runs[0])
	}
	if runs[1].Name != "a" || runs[1].Window != 2 {
		t.Errorf("run a wrong: name=%q window=%d", runs[1].Name, runs[1].Window)
	}
	if _, err := runs[1].Verify(); err != nil {
		t.Errorf("run a failed verify: %v", err)
	}
	if _, err := runs[2].Verify(); err == nil {
		t.Error("forged run b passed verify")
	}
}

// TestTracerCountsAndHists covers the aggregates: the tracer's per-key
// census and the seek histogram a replay of its events rebuilds.
func TestTracerCountsAndHists(t *testing.T) {
	col := trace.NewCollector()
	tr := trace.New(col)
	if !tr.Enabled() {
		t.Fatal("constructed tracer not enabled")
	}
	tr.Disk(trace.KindRead, 10, 0, 10, 0)
	tr.Disk(trace.KindRead, 10, 10, 0, 0)
	tr.Disk(trace.KindWrite, 20, 10, 10, 0)
	tr.Buffer(trace.KindHit, 10, 0, 0)

	counts := tr.Counts()
	if counts["disk/read"] != 2 || counts["disk/write"] != 1 || counts["buffer/hit"] != 1 {
		t.Errorf("census wrong: %v", counts)
	}
	// Reads and writes both feed the seek histogram: 10 + 0 + 10.
	if h := trace.ReplayEvents(col.Events()).SeekHist; h.Count != 3 || h.Sum != 20 || h.Max != 10 {
		t.Errorf("seek hist wrong: %+v", h)
	}
}

// TestHist pins the power-of-two histogram math.
func TestHist(t *testing.T) {
	var h trace.Hist
	for _, v := range []int64{0, 1, 1, 2, 3, 4, 100, -5} {
		h.Add(v)
	}
	if h.Count != 8 {
		t.Errorf("count %d, want 8", h.Count)
	}
	if h.Max != 100 {
		t.Errorf("max %d, want 100", h.Max)
	}
	// Negative values clamp into the zero bucket alongside true zeros.
	if h.Sum != 0+1+1+2+3+4+100 {
		t.Errorf("sum %d", h.Sum)
	}
	if m := h.Mean(); m <= 0 {
		t.Errorf("mean %v", m)
	}
	if q := h.Quantile(1.0); q < 64 {
		t.Errorf("p100 bucket upper bound %d, want >= 64 (holds 100)", q)
	}
	if q := h.Quantile(0); q > 1 {
		t.Errorf("p0 %d, want <= 1", q)
	}
	var other trace.Hist
	other.Add(7)
	h.Merge(other)
	if h.Count != 9 || h.Max != 100 {
		t.Errorf("merge wrong: count %d max %d", h.Count, h.Max)
	}
	if s := h.String(); !strings.Contains(s, "#") {
		t.Errorf("render has no bars:\n%s", s)
	}
}

// TestReplayReversals checks the direction-change reconstruction on a
// synthetic stream: up, up, down is one reversal.
func TestReplayReversals(t *testing.T) {
	col := &trace.Collector{}
	tr := trace.New(col)
	tr.Disk(trace.KindRead, 10, 0, 10, 0)
	tr.Disk(trace.KindRead, 20, 10, 10, 0)
	tr.Disk(trace.KindRead, 5, 20, 15, 0)
	r := trace.ReplayEvents(col.Events())
	if r.Reversals != 1 {
		t.Errorf("reversals %d, want 1", r.Reversals)
	}
	if r.MaxSeek != 15 || r.SeekReads != 35 {
		t.Errorf("seek reconstruction wrong: max %d total %d", r.MaxSeek, r.SeekReads)
	}
	if s := r.Summary(); !strings.Contains(s, "disk") {
		t.Errorf("summary missing disk layer:\n%s", s)
	}
}
