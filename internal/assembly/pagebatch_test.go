package assembly

import (
	"fmt"
	"math/rand"
	"testing"

	"revelation/internal/disk"
	"revelation/internal/heap"
	"revelation/internal/object"
	"revelation/internal/volcano"
)

// TestPageBatchMatchesOracle re-runs the randomized oracle with page
// batching on: the optimization must never change what is assembled.
func TestPageBatchMatchesOracle(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(5000 + trial)))
		w := genWorld(t, rng)
		want := map[string]bool{}
		for _, root := range w.roots {
			if s, ok := w.oracleAssemble(root, w.tmpl); ok {
				want[fmt.Sprintf("%d:%s", uint64(root), s)] = true
			}
		}
		for _, kind := range []SchedulerKind{DepthFirst, Elevator} {
			op := New(volcano.FromOIDs(w.roots), w.store, w.tmpl,
				Options{Window: 16, Scheduler: kind, PageBatch: true})
			items, err := volcano.Drain(nil, op)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, kind, err)
			}
			got := map[string]bool{}
			for _, it := range items {
				inst := it.(*Instance)
				got[fmt.Sprintf("%d:%s", uint64(inst.OID()), render(inst))] = true
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d %v: %d objects, oracle %d", trial, kind, len(got), len(want))
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("trial %d %v: missing %s", trial, kind, k)
				}
			}
		}
	}
}

// TestPageBatchSavesBufferRequests: under intra-object clustering,
// components of one complex object share pages, so batching collapses
// their buffer requests ("even buffer hits can be expensive").
func TestPageBatchSavesBufferRequests(t *testing.T) {
	s, tmpl, roots := buildChainStore(t, 120)
	run := func(batch bool) Stats {
		if err := s.File.Pool().EvictAll(); err != nil {
			t.Fatal(err)
		}
		op := New(volcano.FromOIDs(roots), s, tmpl, Options{
			Window: 20, Scheduler: Elevator, PageBatch: batch,
		})
		out, err := volcano.Drain(nil, op)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 120 {
			t.Fatalf("assembled %d", len(out))
		}
		for _, it := range out {
			checkAssembled(t, s, it.(*Instance))
		}
		return op.Stats()
	}
	plain := run(false)
	batched := run(true)
	if plain.Fetched != batched.Fetched {
		t.Errorf("object fetches changed: %d vs %d", plain.Fetched, batched.Fetched)
	}
	// buildChainStore packs sequential objects 9 to a page, so most
	// refs of the window share pages with other pending refs.
	if batched.PageRequests >= plain.PageRequests {
		t.Errorf("page requests not reduced: %d vs %d", batched.PageRequests, plain.PageRequests)
	}
	if batched.PageRequests > plain.PageRequests/2 {
		t.Errorf("expected >=2x request reduction: %d vs %d", batched.PageRequests, plain.PageRequests)
	}
}

// TestTakeOnPageUnits exercises the scheduler extraction directly.
func TestTakeOnPageUnits(t *testing.T) {
	for _, kind := range []SchedulerKind{DepthFirst, BreadthFirst, Elevator} {
		s := NewScheduler(kind)
		item := &workItem{}
		mk := func(oid, pg int) *Ref {
			return &Ref{OID: mkOID(oid), RID: mkRID(pg), Item: item, Node: &Template{Name: "x"}}
		}
		s.Add(mk(1, 5), mk(2, 9), mk(3, 5), mk(4, 7), mk(5, 5))
		got := s.TakeOnPage(5)
		if len(got) != 3 {
			t.Errorf("%v: TakeOnPage(5) = %d refs, want 3", kind, len(got))
		}
		if s.Len() != 2 {
			t.Errorf("%v: Len after take = %d, want 2", kind, s.Len())
		}
		if extra := s.TakeOnPage(5); len(extra) != 0 {
			t.Errorf("%v: second take returned %d refs", kind, len(extra))
		}
		// Remaining refs still served.
		served := 0
		for r := s.Next(0); r != nil; r = s.Next(0) {
			if r.Page() == 5 {
				t.Errorf("%v: page-5 ref leaked into Next", kind)
			}
			served++
		}
		if served != 2 {
			t.Errorf("%v: served %d remainder refs", kind, served)
		}
	}
}

// TestDepthFirstTakeOnPageStaysObjectAtATime: depth-first batching
// must draw only from the current complex object.
func TestDepthFirstTakeOnPageStaysObjectAtATime(t *testing.T) {
	s := NewScheduler(DepthFirst)
	a, b := &workItem{}, &workItem{}
	s.Add(&Ref{OID: 1, RID: mkRID(5), Item: a, Node: &Template{Name: "x"}})
	s.Add(&Ref{OID: 2, RID: mkRID(5), Item: b, Node: &Template{Name: "x"}})
	got := s.TakeOnPage(5)
	if len(got) != 1 || got[0].Item != a {
		t.Fatalf("depth-first batching crossed complex objects: %d refs", len(got))
	}
}

// helpers shared by the page-batch tests.
func mkOID(i int) object.OID { return object.OID(i) }
func mkRID(pg int) heap.RID  { return heap.RID{Page: disk.PageID(pg)} }
