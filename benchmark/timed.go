package main

import (
	"fmt"
	"hash/crc32"
	"runtime"
	"syscall"
	"time"
)

// segment is one uninterrupted stretch of one workload's closed loop.
type segment struct {
	dataset    int // which of the pass's data sets it ran on
	objects    int
	wall, cpu  time.Duration
	mallocs    uint64
	allocBytes uint64
	gcPause    time.Duration
	p50        float64 // ms
	machine    float64 // the box's speed while it ran, as a share of refMops
}

// timedResult is everything the timed pass learns about one workload.
type timedResult struct {
	setups    []float64 // s at reference machine speed, every set-up of the workload
	liveHeap  []float64 // MB, after every set-up
	segments  []segment
	latencies []float64 // ms, every query of the pass
	calib     []float64 // the machine-speed canary, read around every set-up and segment
}

// setup builds the workload's env and runs its fixed warm-up, the way
// the timed pass needs it: nothing attached. It records in res how long
// that took and what it left on the heap.
func setup(s *spec, seed int64, or *oracle, res *timedResult) (*env, error) {
	runtime.GC()
	heap0 := heapAlloc()
	before := calibrate()
	start := time.Now()
	e, err := build(s, seed, nil, or)
	if err != nil {
		return nil, err
	}
	if _, _, err := e.runQueries(s.warmup); err != nil {
		e.close()
		return nil, err
	}
	took := time.Since(start).Seconds()
	res.setups = append(res.setups, took*res.machine(before, calibrate()))
	// Sampled after a forced collection: without one, HeapAlloc swings
	// by 50–160 % with where the GC cycle happens to be.
	runtime.GC()
	res.liveHeap = append(res.liveHeap, (float64(heapAlloc())-float64(heap0))/(1<<20))
	return e, nil
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// processCPU is user+system CPU time of the whole process, so the
// in-process page servers of the sharded workload are included.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runSegment runs whole queries for at least d: a query that straddles
// the deadline finishes and counts.
func runSegment(e *env, dataset int, d time.Duration, res *timedResult) error {
	var ms0, ms1 runtime.MemStats
	first := len(res.latencies)
	before := calibrate()
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(d)
	seg := segment{dataset: dataset}
	for now := start; now.Before(deadline); {
		n, err := e.query()
		if err != nil {
			return err
		}
		done := time.Now()
		res.latencies = append(res.latencies, float64(done.Sub(now))/1e6)
		seg.objects += n
		now = done
	}
	seg.wall = time.Since(start)
	seg.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	seg.mallocs = ms1.Mallocs - ms0.Mallocs
	seg.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	seg.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	seg.p50 = median(res.latencies[first:])
	seg.machine = res.machine(before, calibrate())
	res.segments = append(res.segments, seg)
	return nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// calibSink keeps the calibration loop's result alive.
var calibSink uint32

// refMops is what the canary reads on the box the bounds were measured
// on when that box is left alone. Any constant would do: it only fixes
// the machine speed the time metrics are quoted at.
const refMops = 23.0

// machine notes the canary's readings before and after a stretch of work
// and returns the box's speed over the stretch as a share of refMops. The
// box this runs on — two vCPUs of a shared host — drifts by 10 to 30 %
// over seconds to minutes, and the canary's run-level median follows a
// workload's throughput with a correlation of 0.75 to 0.97; quoting every
// time at reference speed halves the spread between runs (README.md).
func (r *timedResult) machine(before, after float64) float64 {
	r.calib = append(r.calib, before, after)
	return (before + after) / 2 / refMops
}

// calibrate runs a fixed CRC-32C-over-1-KB loop and returns its speed
// in million checksums per second. It touches nothing of the engine:
// when it moves, the machine moved.
func calibrate() float64 {
	const loops = 100_000
	var buf [1024]byte
	for i := range buf {
		buf[i] = byte(i)
	}
	start := time.Now()
	sum := uint32(0)
	for i := 0; i < loops; i++ {
		buf[0] = byte(i)
		sum ^= crc32.Checksum(buf[:], castagnoli)
	}
	calibSink = sum
	return loops / time.Since(start).Seconds() / 1e6
}

// estimate is how every timing metric is read off the segments: the
// median over each data set's segments, averaged over the data sets;
// endToEnd first scales each segment's value to reference machine speed. The
// median drops the bursts of 0.1 to 10 s in which a shared box slows a
// minority of segments down, yet moves when a change slows most of them,
// which a best-of-segments reading would hide. The mean over data sets
// is smooth where a median over levels that differ by ±10 % would jump
// from one level to the next.
func (r *timedResult) estimate(f func(segment) float64) float64 {
	var bySet [][]float64
	for _, s := range r.segments {
		if s.dataset == len(bySet) {
			bySet = append(bySet, nil)
		}
		bySet[s.dataset] = append(bySet[s.dataset], f(s))
	}
	sum := 0.0
	for _, vs := range bySet {
		sum += median(vs)
	}
	return sum / float64(len(bySet))
}

func throughput(s segment) float64 { return float64(s.objects) / s.wall.Seconds() }

func (r *timedResult) throughputs() []float64 {
	out := make([]float64, len(r.segments))
	for i, s := range r.segments {
		out[i] = throughput(s)
	}
	return out
}

// totals sums the segments.
func (r *timedResult) totals() (t segment) {
	for _, s := range r.segments {
		t.objects += s.objects
		t.wall += s.wall
		t.cpu += s.cpu
		t.mallocs += s.mallocs
		t.allocBytes += s.allocBytes
		t.gcPause += s.gcPause
	}
	return t
}

// endToEnd fills in the timed pass's share of the end-to-end metrics,
// the four times among them at reference machine speed.
// Allocation counts are taken over the whole pass because they repeat
// to four figures however the segments fall.
func (r *timedResult) endToEnd(m metrics) {
	t := r.totals()
	m.set("setup_s", median(r.setups))
	m.set("live_heap_mb", median(r.liveHeap))
	m.set("objects_per_s", r.estimate(func(s segment) float64 { return throughput(s) / s.machine }))
	m.set("query_p50_ms", r.estimate(func(s segment) float64 { return s.p50 * s.machine }))
	m.set("cpu_us_per_object", r.estimate(func(s segment) float64 {
		return float64(s.cpu.Microseconds()) / float64(s.objects) * s.machine
	}))
	m.set("allocs_per_object", float64(t.mallocs)/float64(t.objects))
	m.set("alloc_bytes_per_object", float64(t.allocBytes)/float64(t.objects))
}

// harness fills in the diagnostics of the timed pass itself.
func (r *timedResult) harness(m metrics) {
	t := r.totals()
	lat := sorted(r.latencies)
	m.set("harness.query_p90_ms", quantileSorted(lat, 0.90))
	m.set("harness.query_p99_ms", quantileSorted(lat, 0.99))
	m.set("harness.gc_pause_ms_per_s", float64(t.gcPause.Microseconds())/1e3/t.wall.Seconds())
	m.set("harness.segment_spread_pct", 100*spread(r.throughputs()))
	m.set("harness.calib_mops", median(r.calib))
}

// usPerObject is the pass's wall time per object, the base the traced
// pass's overhead is measured against.
func (r *timedResult) usPerObject() float64 {
	return 1e6 / r.estimate(throughput)
}

func (r *timedResult) String() string {
	return fmt.Sprintf("%d queries; objects/s by segment, as the clock read them %.0f", len(r.latencies), r.throughputs())
}
