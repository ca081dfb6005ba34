package assembly_test

// Lifecycle-abort tests: a query cancelled mid-assembly — including
// with quarantined complex objects already on the books — must leave
// the buffer pool with zero pins and zero reserved frames, balance the
// trace ledger (every admit matched by an emit, abort, or quarantine),
// and surface the context error from Next rather than hanging.

import (
	"context"
	"errors"
	"testing"
	"time"

	"revelation/internal/assembly"
	"revelation/internal/buffer"
	"revelation/internal/disk"
	"revelation/internal/gen"
	"revelation/internal/stats"
	"revelation/internal/trace"
	"revelation/internal/volcano"
)

// drainUntil pulls from the operator until stop reports true (based on
// items seen and current stats) or the operator ends, returning the
// terminal error (nil while stopped early).
func drainUntil(t *testing.T, op *assembly.Operator, stop func(seen int) bool) (int, error) {
	t.Helper()
	seen := 0
	for !stop(seen) {
		_, err := op.Next()
		if errors.Is(err, volcano.Done) {
			return seen, volcano.Done
		}
		if err != nil {
			return seen, err
		}
		seen++
	}
	return seen, nil
}

// TestCancelMidAssemblyWithQuarantine is the satellite abort-path test:
// permanent faults quarantine some complex objects, then the query is
// cancelled with live window slots outstanding. The abort path must
// unpin everything, release the reservation, and emit abort events
// carrying the cancellation reason so the trace ledger still balances.
func TestCancelMidAssemblyWithQuarantine(t *testing.T) {
	w := buildFaultWorld(t, 120, 77)
	w.dev.SetConfig(disk.FaultConfig{Seed: 99, PermanentRate: 0.03})
	if err := w.db.Pool.EvictAll(); err != nil {
		t.Fatal(err)
	}

	col := trace.NewCollector()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	op := assembly.New(rootsSource(w.db.Roots), w.db.Store, w.db.Template, assembly.Options{
		Window:         8,
		Scheduler:      assembly.Elevator,
		FaultPolicy:    assembly.SkipObject,
		PinWindowPages: true,
		ReserveFrames:  24,
		Tracer:         trace.New(col),
	})
	volcano.Bind(ctx, op)
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	if got := w.db.Pool.ReservedFrames(); got != 24 {
		t.Fatalf("reserved %d frames after Open, want 24", got)
	}

	// Assemble until at least one quarantine happened and some objects
	// emitted, so the cancel lands on a window with real history.
	seen, err := drainUntil(t, op, func(seen int) bool {
		st := op.Stats()
		return seen >= 10 && st.Skipped >= 1
	})
	if err != nil {
		t.Fatalf("assembly before cancel (%d emitted, stats %+v): %v", seen, op.Stats(), err)
	}
	if op.Stats().Skipped < 1 {
		t.Fatal("no quarantine before cancel — fault injection is vacuous")
	}

	cancel()
	if _, err := op.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel: %v, want context.Canceled", err)
	}
	// The error is terminal and stable: the books were settled once.
	if _, err := op.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("second Next after cancel: %v, want context.Canceled", err)
	}

	st := op.Stats()
	if err := op.Close(); err != nil {
		t.Fatalf("Close after cancel: %v", err)
	}

	// Everything returns to zero: pins, reservations, and the window.
	if got := w.db.Pool.PinnedFrames(); got != 0 {
		t.Errorf("%d frames still pinned after cancel+Close", got)
	}
	if got := w.db.Pool.ReservedFrames(); got != 0 {
		t.Errorf("%d frames still reserved after cancel+Close", got)
	}

	// The trace ledger balances: every admitted complex object left the
	// window exactly once (emit, abort, or quarantine), and the
	// lifecycle aborts carry the cancellation reason.
	rs := trace.ReplayEvents(col.Events())
	if rs.Admitted != rs.Assembled+rs.Aborted+rs.Quarantined {
		t.Errorf("ledger unbalanced: %d admitted != %d emitted + %d aborted + %d quarantined",
			rs.Admitted, rs.Assembled, rs.Aborted, rs.Quarantined)
	}
	canceledAborts := 0
	for _, e := range col.Events() {
		if e.Layer == trace.LayerAssembly && e.Kind == trace.KindAbort && e.Note == trace.ReasonCanceled {
			canceledAborts++
		}
	}
	if canceledAborts == 0 {
		t.Error("no abort events carry the canceled reason")
	}
	if st.Aborted < canceledAborts {
		t.Errorf("stats aborted %d < %d canceled abort events", st.Aborted, canceledAborts)
	}

	// The replayed stats agree with the operator's own counters.
	if rs.Assembled != st.Assembled || rs.Quarantined != st.Skipped || rs.Aborted != st.Aborted {
		t.Errorf("replay %+v disagrees with stats %+v", rs, st)
	}

	// And the fault report built from the same run is internally
	// consistent: nothing in flight remains anywhere in the stack.
	rep := stats.CollectFaults(w.dev, st)
	if rep.Skipped != st.Skipped || rep.Assembled != st.Assembled {
		t.Errorf("fault report %+v disagrees with stats %+v", rep, st)
	}
}

// TestDeadlineMidAssembly drives the deadline flavor of the same path:
// the operator observes an expired deadline at the next scheduling step
// and aborts the window with reason "deadline". The deadline is bound
// mid-run (after the window filled) so the expiry deterministically
// lands on live slots.
func TestDeadlineMidAssembly(t *testing.T) {
	db := buildDB(t, gen.Config{NumComplexObjects: 100, Clustering: gen.Unclustered, Seed: 7})
	col := trace.NewCollector()
	op := assembly.New(rootsSource(db.Roots), db.Store, db.Template, assembly.Options{
		Window:         6,
		Scheduler:      assembly.Elevator,
		PinWindowPages: true,
		ReserveFrames:  12,
		Tracer:         trace.New(col),
	})
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := drainUntil(t, op, func(seen int) bool { return seen >= 5 }); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	volcano.Bind(ctx, op)
	if _, err := op.Next(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Next past deadline: %v, want context.DeadlineExceeded", err)
	}
	st := op.Stats()
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	if got := db.Pool.PinnedFrames(); got != 0 {
		t.Errorf("%d frames still pinned after deadline abort", got)
	}
	if got := db.Pool.ReservedFrames(); got != 0 {
		t.Errorf("%d frames still reserved after deadline abort", got)
	}
	deadlineAborts := 0
	for _, e := range col.Events() {
		if e.Layer == trace.LayerAssembly && e.Kind == trace.KindAbort && e.Note == trace.ReasonDeadline {
			deadlineAborts++
		}
	}
	if deadlineAborts == 0 {
		t.Error("no abort events carry the deadline reason")
	}
	if st.Aborted != deadlineAborts {
		t.Errorf("stats aborted %d != %d deadline abort events", st.Aborted, deadlineAborts)
	}
}

// TestAbortOrderRepeats: a query cancelled at the same step of the same
// seeded run leaves the same trace, event for event — the aborts of its
// live slots and the unfixes of their pins in the same order every
// time — both with the pool to itself and with a co-tenant holding all
// but 30 frames, so that the operator sheds its window pins on the way.
// The live slots are walked as a slice; as a Go map they came out in a
// different order each run.
func TestAbortOrderRepeats(t *testing.T) {
	run := func(squeeze bool) (events []string, sheds int) {
		db := buildDB(t, gen.Config{NumComplexObjects: 100, Clustering: gen.Unclustered, Seed: 7})
		if err := db.Pool.EvictAll(); err != nil {
			t.Fatal(err)
		}
		var pads []*buffer.Frame
		if squeeze {
			n := db.Pool.Size() - 30
			first, err := db.Device.Allocate(n)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				fr, err := db.Pool.Fix(first + disk.PageID(i))
				if err != nil {
					t.Fatal(err)
				}
				pads = append(pads, fr)
			}
		}
		col := trace.NewCollector()
		tr := trace.New(col)
		db.Pool.SetTracer(tr)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		op := assembly.New(rootsSource(db.Roots), db.Store, db.Template, assembly.Options{
			Window:         16,
			Scheduler:      assembly.Elevator,
			PinWindowPages: true,
			Tracer:         tr,
		})
		volcano.Bind(ctx, op)
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		if _, err := drainUntil(t, op, func(seen int) bool { return seen >= 10 }); err != nil {
			t.Fatal(err)
		}
		cancel()
		if _, err := op.Next(); !errors.Is(err, context.Canceled) {
			t.Fatalf("Next after cancel: %v, want context.Canceled", err)
		}
		sheds = op.Stats().WindowStalls
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
		for _, fr := range pads {
			if err := db.Pool.Unfix(fr, false); err != nil {
				t.Fatal(err)
			}
		}
		aborts := 0
		for _, e := range col.Events() {
			events = append(events, e.String())
			if e.Kind == trace.KindAbort {
				aborts++
			}
		}
		if aborts < 8 {
			t.Fatalf("%d live slots aborted: the cancel did not land on a full window", aborts)
		}
		return events, sheds
	}
	for _, squeeze := range []bool{false, true} {
		first, sheds := run(squeeze)
		if squeeze != (sheds > 0) {
			t.Fatalf("co-tenant %v: %d window stalls", squeeze, sheds)
		}
		for again := 0; again < 4; again++ {
			next, _ := run(squeeze)
			if len(next) != len(first) {
				t.Fatalf("co-tenant %v: %d events, then %d", squeeze, len(first), len(next))
			}
			for i := range first {
				if first[i] != next[i] {
					t.Fatalf("co-tenant %v, event %d of %d: %q, then %q", squeeze, i, len(first), first[i], next[i])
				}
			}
		}
	}
}
