// Per-query attribution acceptance tests: for a seeded multi-query
// workload, three independent accountings of each query's work must
// agree exactly — the sum of its span counters, the qid-filtered trace
// replay, and the device/pool/registry deltas. Verified over both the
// local in-memory backend and the networked page service (client and
// server side).
package qtrace_test

import (
	"context"
	"fmt"
	"testing"

	"revelation/internal/assembly"
	"revelation/internal/disk"
	"revelation/internal/gen"
	"revelation/internal/metrics"
	"revelation/internal/pagesvc"
	"revelation/internal/qtrace"
	"revelation/internal/trace"
	"revelation/internal/volcano"
)

// runQueries assembles every root K times, each pass as its own traced
// query, and returns the collector holding the K finished traces. The
// operators trace into the pool's tracer, if it has one.
func runQueries(t *testing.T, db *gen.Database, k int) *qtrace.Collector {
	t.Helper()
	qc := qtrace.NewCollector(2 * k)
	for i := 0; i < k; i++ {
		qt, root := qc.Begin(fmt.Sprintf("q%d", i))
		ctx := qtrace.With(context.Background(), root)
		op := assembly.New(volcano.FromOIDs(db.Roots), db.Store, db.Template,
			assembly.Options{Window: 8, Scheduler: assembly.Elevator})
		items, err := volcano.Drain(ctx, op)
		qc.Finish(qt, "ok", err)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(items) != len(db.Roots) {
			t.Fatalf("query %d assembled %d of %d", i, len(items), len(db.Roots))
		}
	}
	return qc
}

// quiesce readies a built database for a read-only measured phase:
// nothing dirty, nothing resident, stats at zero.
func quiesce(t *testing.T, db *gen.Database) {
	t.Helper()
	if err := db.Pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := db.Pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	db.Pool.ResetStats()
}

func TestPerQueryAttributionLocal(t *testing.T) {
	db, err := gen.Build(gen.Config{
		NumComplexObjects: 80,
		Clustering:        gen.Unclustered,
		BufferPages:       128,
		Seed:              8,
	})
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, db)

	// Tracers attach after the build, so every event in the stream
	// belongs to the measured queries.
	col := trace.NewCollector()
	tr := trace.New(col)
	db.Pool.SetTracer(tr)
	db.Device.(disk.TracerSetter).SetTracer(tr)
	devBefore := db.Device.Stats()

	const k = 4
	qc := runQueries(t, db, k)

	// Every counter-bearing event must carry a qid; housekeeping kinds
	// (unfix, evict) are deliberately unattributed and not compared.
	attributed := map[string]bool{
		trace.KindRead: true, trace.KindHit: true, trace.KindMiss: true,
		trace.KindFetch: true, trace.KindLink: true,
	}
	events := col.Events()
	for _, e := range events {
		if attributed[e.Kind] && e.QID == 0 {
			t.Fatalf("unattributed %s event in measured phase: %+v", e.Kind, e)
		}
	}

	// Leg 1 vs leg 2: span sums against device and pool deltas.
	sum := qc.TotalAll()
	dev := db.Device.Stats().Sub(devBefore)
	pool := db.Pool.Stats()
	if sum.Reads != dev.Reads {
		t.Errorf("span reads %d != device reads %d", sum.Reads, dev.Reads)
	}
	if sum.SeekPages != dev.SeekReads {
		t.Errorf("span seek pages %d != device read-seek %d", sum.SeekPages, dev.SeekReads)
	}
	if sum.Hits != pool.Hits {
		t.Errorf("span hits %d != pool hits %d", sum.Hits, pool.Hits)
	}
	if sum.Misses != pool.Faults {
		t.Errorf("span misses %d != pool faults %d", sum.Misses, pool.Faults)
	}

	// Leg 3: the global trace replay.
	rep := trace.ReplayEvents(events)
	if sum.Reads != rep.Reads || sum.SeekPages != rep.SeekReads {
		t.Errorf("span disk totals (%d reads, %d seek) != replay (%d, %d)",
			sum.Reads, sum.SeekPages, rep.Reads, rep.SeekReads)
	}
	if sum.Hits != rep.Hits || sum.Misses != rep.Misses {
		t.Errorf("span pool totals (%d, %d) != replay (%d, %d)", sum.Hits, sum.Misses, rep.Hits, rep.Misses)
	}
	if int(sum.Fetches) != rep.Fetched || int(sum.Links) != rep.Links {
		t.Errorf("span assembly totals (%d fetches, %d links) != replay (%d, %d)",
			sum.Fetches, sum.Links, rep.Fetched, rep.Links)
	}

	// And per query: each trace's counters equal its qid-filtered
	// replay, exactly.
	traces := qc.Completed()
	if len(traces) != k {
		t.Fatalf("collector holds %d traces, want %d", len(traces), k)
	}
	for _, qt := range traces {
		total := qt.Total()
		pq := trace.ReplayEvents(trace.FilterQuery(events, qt.QID))
		if total.Reads != pq.Reads || total.SeekPages != pq.SeekReads {
			t.Errorf("qid %d: span disk (%d reads, %d seek) != replay (%d, %d)",
				qt.QID, total.Reads, total.SeekPages, pq.Reads, pq.SeekReads)
		}
		if total.Hits != pq.Hits || total.Misses != pq.Misses {
			t.Errorf("qid %d: span pool (%d, %d) != replay (%d, %d)",
				qt.QID, total.Hits, total.Misses, pq.Hits, pq.Misses)
		}
		if int(total.Fetches) != pq.Fetched || int(total.Links) != pq.Links {
			t.Errorf("qid %d: span assembly (%d, %d) != replay (%d, %d)",
				qt.QID, total.Fetches, total.Links, pq.Fetched, pq.Links)
		}
		if qt.Truncated() != 0 {
			t.Errorf("qid %d: %d spans truncated in a small workload", qt.QID, qt.Truncated())
		}
	}

	// The first (cold) query misses; later ones run against a warm pool
	// — attribution must reflect that, not split evenly.
	if first, last := traces[0].Total(), traces[k-1].Total(); first.Misses <= last.Misses {
		t.Errorf("cold query misses (%d) should exceed warm query misses (%d)", first.Misses, last.Misses)
	}
}

func TestPerQueryAttributionPagesvc(t *testing.T) {
	sim := disk.New(0)
	serverQC := qtrace.NewCollector(0)
	srv := pagesvc.NewServer([]disk.Device{sim}, pagesvc.ServerConfig{QTrace: serverQC})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg := metrics.NewRegistry()
	col := trace.NewCollector()
	tr := trace.New(col)
	client, err := pagesvc.Dial(pagesvc.ClientConfig{
		Primary:  addr,
		Dev:      pagesvc.DataDev,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// The database is built straight over the network client; the build
	// traffic carries qid 0 and creates no server-side traces.
	// A pool far smaller than the database keeps every query faulting,
	// so each qid crosses the wire and rebuilds a server-side trace.
	db, err := gen.Build(gen.Config{
		NumComplexObjects: 60,
		Clustering:        gen.Unclustered,
		BufferPages:       24,
		Seed:              8,
		Device:            client,
	})
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, db)
	client.ResetStats()
	// Attached after the build, so the stream holds the measured
	// phase alone.
	client.SetTracer(tr)
	db.Pool.SetTracer(tr)
	if n := len(serverQC.Active()) + len(serverQC.Completed()); n != 0 {
		t.Fatalf("build traffic created %d server-side traces", n)
	}
	simBefore := sim.Stats()
	before := reg.Snapshot()

	const k = 3
	qc := runQueries(t, db, k)
	events := col.Events()
	sum := qc.TotalAll()
	delta := reg.Snapshot().Delta(before)

	// Client-side three-way: span sums == registry delta == replay, and
	// the wire is clean (every send answered, no timeouts).
	if got := delta.Value("asm_net_sends_total", "dev", "net0"); got != sum.NetSends {
		t.Errorf("span sends %d != registry sends %d", sum.NetSends, got)
	}
	if got := delta.Value("asm_net_recvs_total", "dev", "net0"); got != sum.NetRecvs {
		t.Errorf("span recvs %d != registry recvs %d", sum.NetRecvs, got)
	}
	if sum.NetSends != sum.NetRecvs || sum.NetTimeouts != 0 {
		t.Errorf("wire not clean: %d sends, %d recvs, %d timeouts", sum.NetSends, sum.NetRecvs, sum.NetTimeouts)
	}
	rep := trace.ReplayEvents(events)
	if rep.NetSends != sum.NetSends || rep.NetRecvs != sum.NetRecvs {
		t.Errorf("replay net (%d, %d) != span net (%d, %d)", rep.NetSends, rep.NetRecvs, sum.NetSends, sum.NetRecvs)
	}
	// Every pool miss is exactly one remote read, accounted at the
	// client's local head.
	if sum.Misses != sum.Reads {
		t.Errorf("span misses %d != span (client-side) reads %d", sum.Misses, sum.Reads)
	}
	if sum.NetSends != sum.Reads {
		t.Errorf("span sends %d != span reads %d (no retries expected)", sum.NetSends, sum.Reads)
	}

	// Per query, against the qid-filtered replay.
	for _, qt := range qc.Completed() {
		total := qt.Total()
		pq := trace.ReplayEvents(trace.FilterQuery(events, qt.QID))
		if total.NetSends != pq.NetSends || total.NetRecvs != pq.NetRecvs {
			t.Errorf("qid %d: span net (%d, %d) != replay (%d, %d)",
				qt.QID, total.NetSends, total.NetRecvs, pq.NetSends, pq.NetRecvs)
		}
		if total.Reads != pq.Reads {
			t.Errorf("qid %d: span reads %d != replay reads %d", qt.QID, total.Reads, pq.Reads)
		}
	}

	// Server side: the propagated qids rebuilt matching traces, and the
	// server's span sums equal the physical reads the backing device
	// performed for the measured phase.
	serverSum := serverQC.TotalAll()
	simDelta := sim.Stats().Sub(simBefore)
	if serverSum.Reads != simDelta.Reads {
		t.Errorf("server span reads %d != backing device reads %d", serverSum.Reads, simDelta.Reads)
	}
	if serverSum.Reads != sum.Misses {
		t.Errorf("server span reads %d != client misses %d", serverSum.Reads, sum.Misses)
	}
	clientQIDs := map[uint64]bool{}
	for _, qt := range qc.Completed() {
		clientQIDs[qt.QID] = true
	}
	remote := append(serverQC.Active(), serverQC.Completed()...)
	if len(remote) != k {
		t.Fatalf("server holds %d remote traces, want %d", len(remote), k)
	}
	for _, rt := range remote {
		if !rt.Remote {
			t.Errorf("server trace qid %d not marked remote", rt.QID)
		}
		if !clientQIDs[rt.QID] {
			t.Errorf("server trace qid %d unknown to the client", rt.QID)
		}
	}
}
