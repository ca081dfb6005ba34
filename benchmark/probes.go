package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"revelation/internal/disk"
	"revelation/internal/object"
)

// Probes time single calls into one layer, on the timed pass's own env
// (nothing attached) after that pass has finished. Each figure is the
// median over probeBatches batches of the batch's mean, so one stall
// does not set the number.
const (
	probeBatches = 15
	probeCalls   = 2000
)

// batchMedianNs runs probeBatches batches of probeCalls calls and
// returns the median batch mean in ns per call.
func batchMedianNs(call func(i int) error) (float64, error) {
	means := make([]float64, 0, probeBatches)
	for b := 0; b < probeBatches; b++ {
		start := time.Now()
		for i := 0; i < probeCalls; i++ {
			if err := call(b*probeCalls + i); err != nil {
				return 0, err
			}
		}
		means = append(means, float64(time.Since(start).Nanoseconds())/probeCalls)
	}
	return median(means), nil
}

// decodeSink keeps probe results alive.
var decodeSink *object.Object

// probe fills in the probe metrics of one workload.
func probe(e *env, m metrics) error {
	pool, store := e.db.Pool, e.db.Store
	first, pages := store.File.First(), store.File.NumPages()
	fail := func(what string, err error) error {
		return fmt.Errorf("%s: probe %s: %w", e.spec.name, what, err)
	}

	// A hit: the same resident page, fixed and released.
	hit, err := batchMedianNs(func(int) error {
		f, err := pool.Fix(first)
		if err != nil {
			return err
		}
		return pool.Unfix(f, false)
	})
	if err != nil {
		return fail("fix hit", err)
	}
	m.set("buffer.fix_hit_ns", hit)

	// A miss with the pool full at the workload's frame count, so the
	// choice of a victim is inside the figure: sweeping more pages than
	// there are frames makes every fix under LRU a miss. Where the pool
	// holds the whole database there is nothing to evict, and the sweep
	// is run after emptying the pool each round.
	span := min(pages, pool.Size()+pool.Size()/4+1)
	evictFirst := span <= pool.Size()
	miss, err := batchMedianNs(func(i int) error {
		if evictFirst && i%span == 0 {
			if err := pool.EvictAll(); err != nil {
				return err
			}
		}
		f, err := pool.Fix(first + disk.PageID(i%span))
		if err != nil {
			return err
		}
		return pool.Unfix(f, false)
	})
	if err != nil {
		return fail("fix miss", err)
	}
	m.set("buffer.fix_miss_ns", miss)

	// Get: locate, fix, decode one component of a resident page.
	oid := e.db.Roots[0]
	if _, err := store.Get(oid); err != nil {
		return fail("get", err)
	}
	get, err := batchMedianNs(func(int) error {
		_, err := store.Get(oid)
		return err
	})
	if err != nil {
		return fail("get", err)
	}
	m.set("object.get_ns", get)

	// Decode alone, and what it allocates.
	o, err := store.Get(oid)
	if err != nil {
		return fail("decode", err)
	}
	rec, err := object.Encode(o)
	if err != nil {
		return fail("decode", err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	dec, err := batchMedianNs(func(int) error {
		var err error
		decodeSink, err = object.Decode(rec)
		return err
	})
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return fail("decode", err)
	}
	m.set("object.decode_ns", dec)
	m.set("object.decode_allocs", float64(ms1.Mallocs-ms0.Mallocs)/(probeBatches*probeCalls))

	// Update in place, as the workload is configured: on update-wal the
	// log is attached, so the page image's append is inside. The 30 MB of
	// appends are committed once the clock has stopped.
	upd, err := batchMedianNs(func(i int) error {
		o.Ints[2]++
		return store.Update(o)
	})
	if err != nil {
		return fail("update", err)
	}
	m.set("object.update_ns", upd)
	if e.log != nil {
		if err := e.log.Sync(); err != nil {
			return fail("update", err)
		}
	}

	m.set("pagesvc.rtt_p50_us", 0)
	m.set("pagesvc.pipelined_reads_per_s", 0)
	if e.spec.sharded {
		if err := probeWire(e, m); err != nil {
			return fail("wire", err)
		}
	}
	return nil
}

// probeWire measures one member's page service from the client side:
// serial single-page round trips, then two goroutines keeping the one
// connection's pipeline busy.
func probeWire(e *env, m metrics) error {
	dev := e.members[0].client
	n := dev.NumPages()
	buf := make([]byte, dev.PageSize())
	rtts := make([]float64, 0, probeCalls)
	for i := 0; i < probeCalls; i++ {
		start := time.Now()
		if err := dev.ReadPage(disk.PageID(i%n), buf); err != nil {
			return err
		}
		rtts = append(rtts, float64(time.Since(start).Nanoseconds())/1e3)
	}
	m.set("pagesvc.rtt_p50_us", median(rtts))

	const lanes = 2
	errs := make([]error, lanes)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < lanes; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, dev.PageSize())
			for i := 0; i < probeCalls; i++ {
				if err := dev.ReadPage(disk.PageID((g*probeCalls+i)%n), buf); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	m.set("pagesvc.pipelined_reads_per_s", lanes*probeCalls/wall.Seconds())
	return nil
}
