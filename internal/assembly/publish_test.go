package assembly

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"revelation/internal/disk"
	"revelation/internal/metrics"
	"revelation/internal/volcano"
)

// statCounters names each asm_assembly_* counter after the Stats field
// it publishes.
func statCounters(s Stats) map[string]int {
	return map[string]int{
		"asm_assembly_assembled_total":       s.Assembled,
		"asm_assembly_aborted_total":         s.Aborted,
		"asm_assembly_resolved_total":        s.Resolved,
		"asm_assembly_fetched_total":         s.Fetched,
		"asm_assembly_page_requests_total":   s.PageRequests,
		"asm_assembly_shared_links_total":    s.SharedLinks,
		"asm_assembly_predicate_fails_total": s.PredicateFails,
		"asm_assembly_nil_refs_total":        s.NilRefs,
		"asm_assembly_skipped_total":         s.Skipped,
		"asm_assembly_fault_retries_total":   s.FaultRetries,
		"asm_assembly_window_stalls_total":   s.WindowStalls,
	}
}

// checkCounters compares reg's counters, which started at zero, with s.
func checkCounters(t *testing.T, at string, reg *metrics.Registry, s Stats) {
	t.Helper()
	snap := reg.Snapshot()
	for name, want := range statCounters(s) {
		if got := snap.Sum(name); got != int64(want) {
			t.Fatalf("%s: %s = %d, Stats says %d", at, name, got, want)
		}
	}
}

// checkGauges compares reg's gauges with the operator's live counts.
func checkGauges(t *testing.T, at string, reg *metrics.Registry, live, refs, pages int) {
	t.Helper()
	snap := reg.Snapshot()
	for name, want := range map[string]int{
		"asm_assembly_window_occupancy": live,
		"asm_assembly_ref_pool":         refs,
		"asm_assembly_window_pages":     pages,
	} {
		if got := snap.Sum(name); got != int64(want) {
			t.Fatalf("%s: %s = %d, the operator holds %d", at, name, got, want)
		}
	}
}

// TestOperatorPublishesStats checks the publish step: with a registry
// bound, after every Next and after Close each asm_assembly_* counter
// equals its Stats field and the three gauges equal the window's live
// counts — over the arena sweep's schedulers, fault policies, inputs and
// option combinations on random worlds — and parallel clones publishing
// into one registry add up to their summed Stats.
func TestOperatorPublishesStats(t *testing.T) {
	// The sweep's fault policies, and fail-fast under the permanent
	// faults, so that Next also returns errors.
	faults := append(slices.Clone(diffFaults), diffFaults[1])
	last := &faults[len(faults)-1]
	last.name, last.policy = "fail-fast-faulted", FailFast
	var seen Stats
	failed := 0
	for trial, window := range []int{1, 4, 16, 64} {
		dev := disk.NewFaulty(disk.New(0), disk.FaultConfig{})
		w := genWorldOn(t, rand.New(rand.NewSource(int64(1000+trial))), dev)
		pool := w.store.File.Pool()
		for _, sched := range diffScheds {
			for _, fault := range faults {
				for _, input := range diffInputs {
					for bits := 0; bits < 8; bits++ {
						name := fmt.Sprintf("world%d/w%d/%s/%s/%s/%03b", trial, window, sched.name, fault.name, input, bits)
						opts := Options{
							Window:          window,
							FaultPolicy:     fault.policy,
							PageBatch:       bits&1 != 0,
							UseSharingStats: bits&2 != 0,
							PinWindowPages:  bits&4 != 0,
							Metrics:         metrics.NewRegistry(),
						}
						sched.set(&opts)
						dev.SetConfig(disk.FaultConfig{})
						in := w.diffInput(t, input)
						if err := pool.EvictAll(); err != nil {
							t.Fatal(err)
						}
						dev.ResetHead()
						dev.SetConfig(fault.cfg)
						op := New(in, w.store, w.tmpl, opts)
						if err := op.Open(); err != nil {
							t.Fatal(err)
						}
						for step := 0; ; step++ {
							_, err := op.Next()
							at := fmt.Sprintf("%s: after Next %d (%v)", name, step, err)
							checkCounters(t, at, opts.Metrics, op.Stats())
							checkGauges(t, at, opts.Metrics, len(op.live), op.sched.Len(), op.windowPages)
							if err != nil {
								if err != volcano.Done {
									failed++
								}
								break
							}
						}
						live, refs, pages := len(op.live), op.sched.Len(), op.windowPages
						if err := op.Close(); err != nil {
							t.Fatal(err)
						}
						checkCounters(t, name+": after Close", opts.Metrics, op.Stats())
						checkGauges(t, name+": after Close", opts.Metrics, live, refs, pages)
						dev.SetConfig(disk.FaultConfig{})
						st := op.Stats()
						seen.Assembled += st.Assembled
						seen.Aborted += st.Aborted
						seen.Skipped += st.Skipped
						seen.FaultRetries += st.FaultRetries
						seen.SharedLinks += st.SharedLinks
						seen.NilRefs += st.NilRefs
						seen.PredicateFails += st.PredicateFails
					}
				}
			}
		}
	}
	if seen.Assembled == 0 || seen.Aborted == 0 || seen.Skipped == 0 || seen.FaultRetries == 0 ||
		seen.SharedLinks == 0 || seen.NilRefs == 0 || seen.PredicateFails == 0 {
		t.Errorf("the sweep left a counter at zero: %+v", seen)
	}
	if failed == 0 {
		t.Error("no Next of the sweep failed")
	}

	t.Run("parallel clones", func(t *testing.T) {
		w := genWorld(t, rand.New(rand.NewSource(2099)))
		reg := metrics.NewRegistry()
		opts := Options{Window: 4, Scheduler: Elevator, UseSharingStats: true, Metrics: reg}
		items := make([]volcano.Item, len(w.roots))
		for i, r := range w.roots {
			items[i] = r
		}
		parts := volcano.PartitionSlice(items, 3)
		var mu sync.Mutex
		var clones []*Operator
		ex := volcano.NewExchange(len(parts), func(part int) (volcano.Iterator, error) {
			op := New(volcano.NewSlice(parts[part]), w.store, w.tmpl, opts)
			mu.Lock()
			clones = append(clones, op)
			mu.Unlock()
			return op, nil
		})
		if _, err := volcano.Drain(nil, ex); err != nil {
			t.Fatal(err)
		}
		if len(clones) != len(parts) {
			t.Fatalf("%d clones ran, want %d", len(clones), len(parts))
		}
		var sum Stats
		for _, op := range clones {
			st := op.Stats()
			sum.Assembled += st.Assembled
			sum.Aborted += st.Aborted
			sum.Resolved += st.Resolved
			sum.Fetched += st.Fetched
			sum.PageRequests += st.PageRequests
			sum.SharedLinks += st.SharedLinks
			sum.PredicateFails += st.PredicateFails
			sum.NilRefs += st.NilRefs
		}
		if sum.Resolved == 0 {
			t.Fatal("the clones resolved nothing")
		}
		checkCounters(t, "clones after Close", reg, sum)
	})
}

// TestOperatorPublishAllocs pins the publish step at no allocation: the
// Next calls of a query with a registry bound allocate exactly what the
// same calls allocate with none.
func TestOperatorPublishAllocs(t *testing.T) {
	w := genWorld(t, rand.New(rand.NewSource(2100)))
	pool := w.store.File.Pool()
	steps := func(reg *metrics.Registry) (mallocs uint64, st Stats) {
		if err := pool.EvictAll(); err != nil {
			t.Fatal(err)
		}
		pool.Device().ResetHead()
		op := New(volcano.FromOIDs(w.roots), w.store, w.tmpl,
			Options{Window: 8, Scheduler: Elevator, UseSharingStats: true, Metrics: reg})
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for {
			if _, err := op.Next(); err != nil {
				break
			}
		}
		runtime.ReadMemStats(&after)
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs, op.Stats()
	}
	steps(nil) // warm the pool's and the locator's first-use paths
	off, offStats := steps(nil)
	on, onStats := steps(metrics.NewRegistry())
	if offStats != onStats {
		t.Fatalf("the runs differ: %+v without a registry, %+v with", offStats, onStats)
	}
	t.Logf("%d Next allocations over %d objects, registry bound: %d", off, offStats.Assembled+offStats.Aborted, on)
	if on > off {
		t.Errorf("a registry bound costs %d allocations over the %d of the same steps without", on-off, off)
	}
}
