package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"revelation/internal/assembly"
	"revelation/internal/disk"
)

// ctxProbe is a device that remembers which read path reached it.
type ctxProbe struct {
	*disk.Sim
	plain, viaCtx int
}

func (d *ctxProbe) ReadPage(p disk.PageID, buf []byte) error {
	d.plain++
	return d.Sim.ReadPage(p, buf)
}

func (d *ctxProbe) ReadPageCtx(ctx context.Context, p disk.PageID, buf []byte) error {
	d.viaCtx++
	return d.Sim.ReadPageCtx(ctx, p, buf)
}

func TestTimedDeviceForwardsCtxReaderAndStats(t *testing.T) {
	for _, on := range []bool{false, true} {
		inner := &ctxProbe{Sim: disk.New(8)}
		rec := newRecorder()
		rec.on.Store(on)
		var dev disk.Device = &timedDevice{inner: inner, rec: rec, read: spDiskRead, write: spDiskWrite}
		if _, ok := dev.(disk.CtxReader); !ok {
			t.Fatal("timedDevice hides disk.CtxReader")
		}
		buf := make([]byte, dev.PageSize())
		root := rec.beginQuery(spOperator)
		if err := disk.ReadPageCtx(context.Background(), dev, 5, buf); err != nil {
			t.Fatal(err)
		}
		if err := dev.ReadPage(2, buf); err != nil {
			t.Fatal(err)
		}
		if err := dev.WritePage(7, buf); err != nil {
			t.Fatal(err)
		}
		rec.end(root, true)
		if inner.viaCtx != 1 || inner.plain != 1 {
			t.Errorf("recording=%v: inner saw %d ctx reads and %d plain reads, want 1 and 1", on, inner.viaCtx, inner.plain)
		}
		// Seeks 0→5→2→7: the decorator must neither add nor hide traffic.
		want := disk.Stats{Reads: 2, Writes: 1, SeekTotal: 13, SeekReads: 8, MaxSeek: 5}
		if got := dev.Stats(); got != want || inner.Sim.Stats() != want {
			t.Errorf("recording=%v: stats through the decorator %+v, inner %+v, want %+v", on, got, inner.Sim.Stats(), want)
		}
		wantSpans := 1
		if on {
			wantSpans = 4
		}
		if len(rec.spans) != wantSpans {
			t.Errorf("recording=%v: %d spans, want %d", on, len(rec.spans), wantSpans)
		}
		for _, s := range rec.spans[1:] {
			if s.parent != root {
				t.Errorf("%s span has parent %d, want the query %d", s.kind, s.parent, root)
			}
		}
	}
}

func TestWrapSchedulerKeepsBatchCapability(t *testing.T) {
	rec := newRecorder()
	plain := wrapScheduler(rec, assembly.NewScheduler(assembly.Elevator))
	if _, ok := plain.(assembly.BatchScheduler); ok {
		t.Error("a plain elevator gained BatchScheduler by being wrapped")
	}
	lanes := wrapScheduler(rec, assembly.NewShardElevator(3, func(p disk.PageID) int { return int(p) % 3 }))
	b, ok := lanes.(assembly.BatchScheduler)
	if !ok {
		t.Fatal("wrapping a ShardElevator lost assembly.BatchScheduler")
	}
	if b.Lanes() != 3 || b.LaneOf(7) != 1 {
		t.Errorf("Lanes %d LaneOf(7) %d, want 3 and 1", b.Lanes(), b.LaneOf(7))
	}
	if got := b.NextBatch(0); len(got) != 0 || lanes.Len() != 0 || lanes.Next(0) != nil {
		t.Error("an empty scheduler handed out references")
	}
	if lanes.Name() == "" || lanes.Name() != assembly.NewShardElevator(3, nil).Name() {
		t.Errorf("Name %q is not the inner scheduler's", lanes.Name())
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	// A query of 100 with a scheduler call, then two device reads that
	// overlap (concurrent lanes), one of which has a child of its own
	// that runs past its end and is clipped.
	spans := []span{
		{kind: spOperator, start: 0, end: 100},
		{kind: spSchedNext, parent: 1, start: 10, end: 20},
		{kind: spShardRead, parent: 1, start: 30, end: 60},
		{kind: spShardRead, parent: 1, start: 50, end: 80},
		{kind: spNetRead, parent: 3, start: 35, end: 70},
	}
	self := selfTimes(spans)
	if want := []int64{40, 10, 5, 30, 35}; !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	bd, err := analyze(spans)
	if err != nil {
		t.Fatal(err)
	}
	if bd.wall != 100 || bd.sched != 10 || bd.io != 50 || bd.rootSelf != 40 {
		t.Errorf("wall %d = sched %d + io %d + operator %d, want 100 = 10 + 50 + 40", bd.wall, bd.sched, bd.io, bd.rootSelf)
	}
	if bd.identityError() != 0 {
		t.Errorf("identity error %v, want 0", bd.identityError())
	}
	if k := bd.kinds[spShardRead]; k.count != 2 || k.total != 60 || k.self != 35 {
		t.Errorf("shard/read totals %+v", k)
	}
	if skew, overlap := laneBalance([]span{
		{kind: spNetRead, lane: 0, start: 0, end: 10},
		{kind: spNetRead, lane: 1, start: 5, end: 15},
		{kind: spNetRead, lane: 1, start: 20, end: 30},
	}); skew != 2.0/1.5 || overlap != 30.0/25.0 {
		t.Errorf("lane skew %v overlap %v, want %v and 1.2", skew, overlap, 2.0/1.5)
	}

	// A scheduler span that overlaps an I/O span breaks the identity,
	// and bookkeeping faults are errors, not noise.
	spans[1].end = 40
	if bd, _ := analyze(spans); bd.identityError() < 0.05 {
		t.Errorf("overlapping sched and io spans went unnoticed: error %v", bd.identityError())
	}
	if _, err := analyze([]span{{kind: spOperator, start: 5, end: -1}}); err == nil {
		t.Error("a span that never ended passed analysis")
	}
	if _, err := analyze([]span{{kind: spDiskRead, start: 0, end: 1}}); err == nil {
		t.Error("a device span outside any query passed analysis")
	}
}

func TestQuantileHelpers(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	if median(xs) != 5 || quantile(xs, 0) != 1 || quantile(xs, 1) != 9 || quantile(xs, 0.25) != 3 {
		t.Errorf("median %v q0 %v q1 %v q25 %v", median(xs), quantile(xs, 0), quantile(xs, 1), quantile(xs, 0.25))
	}
	if xs[0] != 9 {
		t.Error("quantile sorted its argument in place")
	}
	if got := median([]float64{1, 2}); got != 1.5 {
		t.Errorf("median of two = %v, want 1.5", got)
	}
	if got := quantile([]float64{0, 10}, 0.9); math.Abs(got-9) > 1e-12 {
		t.Errorf("p90 of {0,10} = %v, want 9", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is a number")
	}
	if got := spread(xs); got != (7.0-3.0)/5.0 {
		t.Errorf("spread %v, want 0.8", got)
	}
	if relDiff(90, 110) != 0.2 || relDiff(0, 0) != 0 || ratio(1, 0) != 0 {
		t.Error("relDiff/ratio")
	}
}

func TestEstimateAveragesSegmentMedians(t *testing.T) {
	// Two data sets at different levels, one segment hit by a burst.
	r := &timedResult{}
	for i, objects := range []int{100, 10, 104, 200, 202, 204} {
		r.segments = append(r.segments, segment{dataset: i / 3, objects: objects, wall: time.Second, p50: float64(objects)})
	}
	if got := r.estimate(throughput); got != (100+202)/2 {
		t.Errorf("throughput estimate %v, want 151: the burst must drop out and the levels average", got)
	}
	// A change that slows most segments of a data set must show.
	r.segments[0].objects = 12
	if got := r.estimate(throughput); got != (12+202)/2 {
		t.Errorf("throughput estimate %v, want 107: two slow segments of three are the data set's level", got)
	}
	// Times are quoted at reference machine speed: a segment the canary
	// saw run on a box at half speed counts double.
	half := &timedResult{segments: []segment{{objects: 100, wall: time.Second, cpu: time.Second, p50: 8, machine: 0.5}}}
	m := metrics{}
	half.endToEnd(m)
	if m["objects_per_s"] != 200 || m["query_p50_ms"] != 4 || m["cpu_us_per_object"] != 5000 {
		t.Errorf("at half machine speed: %v objects/s, p50 %v ms, %v us CPU/object; want 200, 4 and 5000",
			m["objects_per_s"], m["query_p50_ms"], m["cpu_us_per_object"])
	}
	if k := half.machine(refMops, refMops/2); k != 0.75 || len(half.calib) != 2 {
		t.Errorf("machine(ref, ref/2) = %v with %d canary readings kept, want 0.75 and 2", k, len(half.calib))
	}
	c := protocol(7, 16)
	if c.seedOf(0) != 70 || c.seedOf(9) != 79 || c.segment != 200*time.Millisecond {
		t.Errorf("protocol %+v: derived seeds overlap between neighbouring runs, or the segments do not add up to the seconds", c)
	}
}

// declared mirrors BENCHMARK.json.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestDeclarationMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n, u string) {
		if !name.MatchString(n) || (u != "" && !unit.MatchString(u)) || seen[n] {
			t.Errorf("%s %q (unit %q) is malformed or repeated", kind, n, u)
		}
		seen[n] = true
	}
	if len(d.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d implemented", len(d.Workloads), len(specs))
	}
	for i, w := range d.Workloads {
		check("workload", w.Name, "")
		if w.Name != specs[i].name || w.Why != specs[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: declared %q / %q, implemented %q / %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	if len(d.EndToEnd) != len(endToEndDefs) || len(d.PerLayer) != len(perLayerDefs) {
		t.Fatalf("declared %d+%d metrics, implemented %d+%d", len(d.EndToEnd), len(d.PerLayer), len(endToEndDefs), len(perLayerDefs))
	}
	for i, m := range d.EndToEnd {
		check("end-to-end metric", m.Name, m.Unit)
		if def := endToEndDefs[i]; m.Name != def.name || m.Unit != def.unit {
			t.Errorf("end-to-end %d: declared %s [%s], implemented %s [%s]", i, m.Name, m.Unit, def.name, def.unit)
		}
		if m.Bound != bounds[m.Name] || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: declared bound %v, -aa holds runs to %v", m.Name, m.Bound, bounds[m.Name])
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for i, m := range d.PerLayer {
		check("per-layer metric", m.Name, m.Unit)
		if def := perLayerDefs[i]; m.Name != def.name || m.Unit != def.unit {
			t.Errorf("per-layer %d: declared %s [%s], implemented %s [%s]", i, m.Name, m.Unit, def.name, def.unit)
		}
	}
	if len(d.Paths) != 1 || d.Paths[0] != "benchmark" || d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", d.Paths, d.RunSeconds)
	}
}

// shortened returns copies of the workloads with less fixed work, so
// the whole pipeline runs in a few seconds.
func shortened() []*spec {
	out := make([]*spec, len(specs))
	for i, s := range specs {
		c := *s
		if c.update {
			c.warmup, c.counted = txnsPerCheckpoint, 2*txnsPerCheckpoint
		}
		out[i] = &c
	}
	return out
}

func TestSmokeAllWorkloads(t *testing.T) {
	cfg := config{seed: 5, datasets: 1, segments: 1, segment: 100 * time.Millisecond, layers: true, log: io.Discard,
		traceOut: t.TempDir() + "/spans.txt"}
	for _, s := range shortened() {
		r, err := measure(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !r.correct() || r.attempted == 0 {
			t.Errorf("%s: attempted %d failed %d problems %v", r.spec.name, r.attempted, r.failed, r.problems)
		}
		if bad := append(r.endToEnd.missing(endToEndDefs), r.layers.missing(perLayerDefs)...); len(bad) > 0 {
			t.Errorf("%s: %v", r.spec.name, bad)
		}
		for _, d := range endToEndDefs {
			if r.endToEnd[d.name] <= 0 {
				t.Errorf("%s: end-to-end %s = %v, must never be 0", r.spec.name, d.name, r.endToEnd[d.name])
			}
		}
		if e := r.layers["harness.span_identity_err_pct"]; e > 1 {
			t.Errorf("%s: layer times miss the query wall time by %.2f%%", r.spec.name, e)
		}
	}
	if st, err := os.Stat(cfg.traceOut); err != nil || st.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
}

func TestCountedPassRepeatsExactly(t *testing.T) {
	for _, s := range shortened() {
		or, err := buildOracle(s, 11)
		if err != nil {
			t.Fatal(err)
		}
		a, err := countedPass(s, 11, or, false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := countedPass(s, 11, or, false)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := countedPass(s, 11, or, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(traced.problems) > 0 {
			t.Errorf("%s: %v", s.name, traced.problems)
		}
		// The fleet's lanes race for the pool, so which of two misses
		// evicts first — and with it the exact read count — may differ
		// between runs there; everywhere else counts are exact.
		if !s.sharded {
			if a.dev != b.dev || a.pool != b.pool || a.objects != b.objects {
				t.Errorf("%s: same seed, different counts:\n %+v %+v\n %+v %+v", s.name, a.dev, a.pool, b.dev, b.pool)
			}
			if a.dev != traced.dev || a.pool != traced.pool {
				t.Errorf("%s: decorators changed the counts:\n %+v %+v\n %+v %+v", s.name, a.dev, a.pool, traced.dev, traced.pool)
			}
		}
		or2, err := buildOracle(s, 12)
		if err != nil {
			t.Fatal(err)
		}
		c, err := countedPass(s, 12, or2, false)
		if err != nil {
			t.Fatal(err)
		}
		if c.dev.SeekReads == a.dev.SeekReads {
			t.Errorf("%s: seeds 11 and 12 seek identically (%d pages): the seed does not reach the data", s.name, c.dev.SeekReads)
		}
		ma, mc := metrics{}, metrics{}
		a.endToEnd(ma)
		c.endToEnd(mc)
		if len(ma) != len(mc) || len(ma) != 2 {
			t.Errorf("%s: metric sets differ across seeds: %v vs %v", s.name, ma, mc)
		}
	}
}

func TestVerificationCatchesWrongResults(t *testing.T) {
	for _, s := range shortened() {
		or, err := buildOracle(s, 3)
		if err != nil {
			t.Fatal(err)
		}
		// Corrupt what the oracle expects of one object: the engine's
		// (correct) answer must now count as a failed query.
		if s.update {
			for i := range or.ints1 {
				or.ints1[i]++
			}
		} else {
			for i := range or.digest {
				or.digest[i]++
			}
		}
		e, err := build(s, 3, nil, or)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.query(); err != nil {
			t.Fatal(err)
		}
		if e.failed != 1 || e.attempted != 1 {
			t.Errorf("%s: a wrong result went unnoticed (attempted %d, failed %d)", s.name, e.attempted, e.failed)
		}
		if err := e.close(); err != nil {
			t.Error(err)
		}
	}
}
