package assembly

// What outlives a query — the elevators' leaves (freeLeaves) and the
// pool's lane loads (buffer.Pool.StartLanes) — must carry nothing of it
// into the next.

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"revelation/internal/disk"
	"revelation/internal/volcano"
)

// TestReuseLeaksNoState: a query closed early — objects aborted under
// permanent faults, their references left in the scheduler as
// tombstones, lane runs read into the pool's loads — and then a full
// query on the same pool, under every scheduler. The second query's
// objects are the oracle's, tree and fields byte for byte.
func TestReuseLeaksNoState(t *testing.T) {
	var tombstones, laneRuns int
	for trial := 0; trial < 4; trial++ {
		dev := disk.NewFaulty(disk.New(0), disk.FaultConfig{})
		w := genWorldOn(t, rand.New(rand.NewSource(int64(2000+trial))), dev)
		pool := w.store.File.Pool()
		var want []string
		for _, root := range w.roots {
			if s, ok := w.oracleAssemble(root, w.tmpl); ok {
				want = append(want, s)
			}
		}
		slices.Sort(want)
		for _, sched := range diffScheds {
			if err := pool.EvictAll(); err != nil {
				t.Fatal(err)
			}
			opts := Options{Window: 8, FaultPolicy: SkipObject}
			sched.set(&opts)
			dev.SetConfig(disk.FaultConfig{Seed: int64(trial), PermanentRate: 0.05})
			op := New(volcano.FromOIDs(w.roots), w.store, w.tmpl, opts)
			if err := op.Open(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(w.roots)/3; i++ {
				if _, err := op.Next(); err != nil {
					break
				}
			}
			if op.stats.Aborted+op.stats.Skipped > 0 && op.sched.Len() > 0 {
				tombstones++
			}
			if len(op.batchRuns) > 1 {
				laneRuns++
			}
			if err := op.Close(); err != nil {
				t.Fatal(err)
			}
			dev.SetConfig(disk.FaultConfig{})

			opts = Options{Window: 8}
			sched.set(&opts)
			out, err := volcano.Drain(nil, New(volcano.FromOIDs(w.roots), w.store, w.tmpl, opts))
			if err != nil {
				t.Fatalf("world %d, %s: second query: %v", trial, sched.name, err)
			}
			var got []string
			for _, it := range out {
				in := it.(*Instance)
				got = append(got, render(in))
				in.Walk(func(c *Instance) {
					o := w.objs[c.OID()]
					if !slices.Equal(c.Object.Ints, o.Ints) || !slices.Equal(c.Object.Refs, o.Refs) {
						t.Errorf("world %d, %s: object %v is %v%v, stored %v%v",
							trial, sched.name, c.OID(), c.Object.Ints, c.Object.Refs, o.Ints, o.Refs)
					}
				})
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("world %d, %s: the second query's trees differ from the oracle's", trial, sched.name)
			}
			if n := pool.PinnedFrames(); n != 0 {
				t.Errorf("world %d, %s: %d frames left pinned", trial, sched.name, n)
			}
		}
	}
	if tombstones < len(diffScheds) || laneRuns == 0 {
		t.Errorf("%d first queries closed with aborted objects' references pending, %d with lane runs read", tombstones, laneRuns)
	}
}

// TestClosedQueryContextCollected: the loads a query's lanes read with
// stay with the pool after Close, its context does not.
func TestClosedQueryContextCollected(t *testing.T) {
	w := genWorld(t, rand.New(rand.NewSource(1003)))
	pool := w.store.File.Pool()
	if err := pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	var freed atomic.Bool
	type key struct{}
	val := new([64]byte)
	runtime.SetFinalizer(val, func(*[64]byte) { freed.Store(true) })
	ctx := context.WithValue(context.Background(), key{}, val)
	opts := Options{Window: 6, CustomScheduler: NewShardElevator(2, func(p disk.PageID) int { return int(p) % 2 })}
	op := New(volcano.FromOIDs(w.roots), w.store, w.tmpl, opts)
	if _, err := volcano.Drain(ctx, op); err != nil {
		t.Fatal(err)
	}
	if len(op.batchRuns) < 2 {
		t.Fatalf("the query's last batch had %d runs; its lanes read none", len(op.batchRuns))
	}
	val, ctx, op = nil, nil, nil
	if !collected(&freed) {
		t.Error("a closed query's context is still reachable")
	}
	runtime.KeepAlive(pool)
}

// TestFreeLeavesCapped: a release hands back zeroed leaves, and never
// more than the free list's cap.
func TestFreeLeavesCapped(t *testing.T) {
	var s pendingSet
	refs := make([]Ref, maxFreeLeaves+10)
	for i := range refs {
		refs[i].RID.Page = disk.PageID(i << 6) // a leaf each
		s.push(&refs[i])
	}
	s.release()
	freeLeaves.Lock()
	defer freeLeaves.Unlock()
	if n := len(freeLeaves.list); n != maxFreeLeaves {
		t.Errorf("%d leaves on the free list, cap %d", n, maxFreeLeaves)
	}
	for _, leaf := range freeLeaves.list {
		if *leaf != (pendingLeaf{}) {
			t.Fatal("a leaf on the free list is not zeroed")
		}
	}
}
