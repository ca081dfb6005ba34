package main

import (
	"fmt"
	"time"

	"revelation/internal/buffer"
	"revelation/internal/disk"
)

// countedResult is what one counted/traced pass measured: exact counts
// from fixed work, and per-layer times from decorator spans.
type countedResult struct {
	objects int
	dev     disk.Stats   // the pool's device (the router sums its members)
	pool    buffer.Stats // public pool counters over the pass
	spans   []span
	bd      breakdown
	// tracedUsPerObject is a second, warm cycle's wall time per object
	// with recording on, to set against the timed pass.
	tracedUsPerObject float64
	// Operator counters (public assembly.Stats) and the retired logs'
	// totals, as of the end of the cold cycle.
	resolved, peakRefPool, peakWindowPages int
	log                                    logTotals
	attempted, failed                      int
	problems                               []string
}

// countedPass builds the workload a second time, starts cold and runs
// the fixed work once, so its counts repeat exactly. When traced, the
// env carries decorators at every interface seam and the pass also
// yields spans; otherwise nothing is attached and only the counts of
// the engine's public Stats() are taken.
func countedPass(s *spec, seed int64, or *oracle, traced bool) (*countedResult, error) {
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	e, err := build(s, seed, rec, or)
	if err != nil {
		return nil, err
	}
	defer e.close()
	pool, dev := e.db.Pool, e.db.Device
	if err := pool.EvictAll(); err != nil {
		return nil, err
	}
	pool.ResetStats()
	dev.ResetStats()
	dev.ResetHead()

	if traced {
		rec.on.Store(true)
	}
	objects, _, err := e.runQueries(s.counted)
	if err != nil {
		return nil, err
	}
	res := &countedResult{objects: objects, dev: dev.Stats(), pool: pool.Stats()}
	res.attempted, res.failed = e.attempted, e.failed
	if res.failed != 0 {
		res.problems = append(res.problems, fmt.Sprintf("%s: %d of %d counted queries failed verification", s.name, res.failed, res.attempted))
	}
	if !traced {
		return res, nil
	}
	rec.on.Store(false)
	// Capped, so the warm cycle below appends past it, not into it.
	res.spans = rec.spans[:len(rec.spans):len(rec.spans)]
	res.resolved, res.peakRefPool, res.peakWindowPages = e.resolved, e.peakRefPool, e.peakWindowPages
	if e.audit != nil {
		res.log = e.audit.totals
	}

	// The same work again, warm and still recording, only to learn what
	// recording costs; its spans are dropped.
	rec.on.Store(true)
	warmObjects, warmWall, err := e.runQueries(s.counted)
	rec.on.Store(false)
	if err != nil {
		return nil, err
	}
	res.tracedUsPerObject = float64(warmWall.Microseconds()) / float64(warmObjects)

	if res.bd, err = analyze(res.spans); err != nil {
		return nil, fmt.Errorf("%s: spans: %w", s.name, err)
	}
	res.check(s, e)
	return res, nil
}

// add folds another data set's untraced pass into r.
func (r *countedResult) add(c *countedResult) {
	r.objects += c.objects
	r.dev.Reads += c.dev.Reads
	r.dev.SeekReads += c.dev.SeekReads
	r.attempted += c.attempted
	r.failed += c.failed
	r.problems = append(r.problems, c.problems...)
}

// endToEnd fills in the counted share of the end-to-end metrics: the
// paper's cost, which no CPU-only change may move.
func (r *countedResult) endToEnd(m metrics) {
	m.set("seek_pages_per_read", r.dev.AvgSeekPerRead())
	m.set("page_reads_per_object", float64(r.dev.Reads)/float64(r.objects))
}

// layers derives the per-layer metrics of a traced pass. Times come
// from spans, counts from the packages' public Stats().
func (r *countedResult) layers(m metrics) {
	k, n := &r.bd.kinds, float64(r.objects)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }

	var sched kindTotals
	for kind := spSchedAdd; kind <= spSchedTake; kind++ {
		sched.count += k[kind].count
		sched.total += k[kind].total
	}
	m.set("assembly.sched_us_per_object", us(sched.total)/n)
	m.set("assembly.sched_calls_per_object", float64(sched.count)/n)
	m.set("assembly.sched_pending_max", float64(r.peakRefPool))
	m.set("assembly.operator_us_per_object", us(k[spOperator].self)/n)
	m.set("assembly.refs_resolved_per_object", float64(r.resolved)/n)
	m.set("assembly.peak_window_pages", float64(r.peakWindowPages))
	m.set("object.store_us_per_object", us(k[spStore].self)/n)

	m.set("buffer.hit_ratio", r.pool.HitRate())
	m.set("buffer.misses_per_object", float64(r.pool.Faults)/n)
	m.set("buffer.evictions_per_object", float64(r.pool.Evictions)/n)
	m.set("buffer.flushes_per_object", float64(r.pool.Flushes)/n)

	m.set("disk.read_us_per_object", us(k[spDiskRead].total)/n)
	m.set("disk.reads_per_object", float64(k[spDiskRead].count)/n)
	m.set("disk.write_us_per_object", us(k[spDiskWrite].total)/n)
	m.set("disk.writes_per_object", float64(k[spDiskWrite].count)/n)

	m.set("pagesvc.read_us_per_object", us(k[spNetRead].total)/n)
	m.set("pagesvc.reads_per_object", float64(k[spNetRead].count)/n)
	m.set("pagesvc.wire_us_per_read", ratio(us(k[spNetRead].self), float64(k[spNetRead].count)))
	m.set("shard.router_self_us_per_object", us(k[spShardRead].self)/n)
	skew, overlap := laneBalance(r.spans)
	m.set("shard.lane_skew", skew)
	m.set("shard.lane_overlap", overlap)

	m.set("wal.append_us_per_object", us(k[spWalAppend].total)/n)
	// Commits only: the pool's SyncTo calls at a checkpoint find the log
	// already durable and are part of wal.checkpoint_ms.
	m.set("wal.sync_us_per_object", us(k[spWalSync].total)/n)
	m.set("wal.syncs_per_object", float64(k[spWalSync].count)/n)
	m.set("wal.bytes_per_object", float64(r.log.bytes)/n)
	m.set("wal.page_writes_per_object", float64(r.log.pageWrites)/n)
	m.set("wal.checkpoint_ms", ratio(us(k[spWalCheckpoint].total)/1e3, float64(k[spWalCheckpoint].count)))
	m.set("wal.recover_ms_per_mb", ratio(float64(r.log.recoverTime.Microseconds())/1e3, float64(r.log.bytes)/(1<<20)))

	m.set("harness.span_identity_err_pct", 100*r.bd.identityError())
}

// laneBalance looks at the fleet's member reads: skew is the busiest
// member's reads over the mean, overlap is summed member read time over
// the time at least one member read was in flight (1 = the lanes never
// overlap, fleetSize = they always do).
func laneBalance(spans []span) (skew, overlap float64) {
	var reads [fleetSize]float64
	var busy int64
	var member []span
	for _, s := range spans {
		if s.kind == spNetRead {
			reads[s.lane]++
			busy += s.dur()
			member = append(member, s)
		}
	}
	if len(member) == 0 {
		return 0, 0
	}
	most, sum := 0.0, 0.0
	for _, c := range reads {
		most, sum = max(most, c), sum+c
	}
	return most / (sum / fleetSize), float64(busy) / float64(unionLength(member))
}

// check cross-examines the pass: the span identity, decorators against
// the packages' own counters, and silence of the layers a workload does
// not have.
func (r *countedResult) check(s *spec, e *env) {
	bad := func(format string, args ...any) {
		r.problems = append(r.problems, s.name+": "+fmt.Sprintf(format, args...))
	}
	if err := r.bd.identityError(); err > 0.01 {
		bad("sched %v + io %v + operator %v is %.2f%% off the query wall time %v",
			time.Duration(r.bd.sched), time.Duration(r.bd.io), time.Duration(r.bd.rootSelf), 100*err, time.Duration(r.bd.wall))
	}
	k := &r.bd.kinds
	// Every device read the engine counted must have a span, and the
	// other way round: the decorators see all traffic and add none.
	dataReads := k[spDiskRead].count
	if s.sharded {
		if k[spShardRead].count != r.dev.Reads || k[spNetRead].count != r.dev.Reads {
			bad("router saw %d reads, members %d, device stats %d", k[spShardRead].count, k[spNetRead].count, r.dev.Reads)
		}
		for _, m := range e.members {
			if c := m.wire.clashes.Load(); c != 0 {
				bad("%d reads overlapped on one lane; span parents across the wire are unreliable", c)
			}
		}
	}
	if dataReads != r.dev.Reads {
		bad("%d disk read spans, device stats count %d reads", dataReads, r.dev.Reads)
	}
	if r.pool.Faults != r.dev.Reads {
		bad("%d pool misses, %d device reads", r.pool.Faults, r.dev.Reads)
	}
	if want := int64(s.counted); k[spOperator].count+k[spStore].count != want {
		bad("%d root spans for %d queries", k[spOperator].count+k[spStore].count, want)
	}
}
