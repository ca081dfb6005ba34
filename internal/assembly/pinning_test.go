package assembly_test

import (
	"testing"

	"revelation/internal/assembly"
	"revelation/internal/gen"
	"revelation/internal/object"
	"revelation/internal/volcano"
)

// Tests for the PinWindowPages buffer economics (paper Section 4 /
// Section 7 window-buffer tuning).

func TestPinnedWindowReleasesAllPins(t *testing.T) {
	db := buildDB(t, gen.Config{NumComplexObjects: 200, Clustering: gen.Unclustered, Seed: 51, BufferPages: 128})
	op := assembly.New(volcano.FromOIDs(db.Roots), db.Store, db.Template, assembly.Options{
		Window:         10,
		Scheduler:      assembly.Elevator,
		PinWindowPages: true,
	})
	out := drainAssembly(t, op)
	if len(out) != 200 {
		t.Fatalf("assembled %d", len(out))
	}
	if n := db.Pool.PinnedFrames(); n != 0 {
		t.Errorf("pinned frames after drain = %d", n)
	}
}

func TestPinnedWindowCloseMidStreamReleasesPins(t *testing.T) {
	db := buildDB(t, gen.Config{NumComplexObjects: 200, Clustering: gen.Unclustered, Seed: 52, BufferPages: 128})
	op := assembly.New(volcano.FromOIDs(db.Roots), db.Store, db.Template, assembly.Options{
		Window:         10,
		Scheduler:      assembly.Elevator,
		PinWindowPages: true,
	})
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	// Pull a handful and abandon the rest.
	for i := 0; i < 5; i++ {
		if _, err := op.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	if n := db.Pool.PinnedFrames(); n != 0 {
		t.Errorf("pinned frames after mid-stream close = %d", n)
	}
}

func TestPinnedWindowNeverExhaustsPool(t *testing.T) {
	// A window far too large for the buffer must degrade (admission
	// gating) rather than fail with "all frames pinned".
	db := buildDB(t, gen.Config{NumComplexObjects: 300, Clustering: gen.Unclustered, Seed: 53, BufferPages: 32})
	op := assembly.New(volcano.FromOIDs(db.Roots), db.Store, db.Template, assembly.Options{
		Window:         200,
		Scheduler:      assembly.Elevator,
		PinWindowPages: true,
	})
	items, err := volcano.Drain(nil, op)
	if err != nil {
		t.Fatalf("tiny buffer with huge window: %v", err)
	}
	if len(items) != 300 {
		t.Fatalf("assembled %d", len(items))
	}
}

func TestPinnedWindowAbortReleasesPins(t *testing.T) {
	db := buildDB(t, gen.Config{NumComplexObjects: 150, Clustering: gen.Unclustered, Seed: 54, BufferPages: 96})
	tmpl := db.Template.Clone()
	tmpl.Children[0].Pred = neverPred{}
	op := assembly.New(volcano.FromOIDs(db.Roots), db.Store, tmpl, assembly.Options{
		Window:         20,
		Scheduler:      assembly.Elevator,
		PinWindowPages: true,
	})
	items, err := volcano.Drain(nil, op)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 0 {
		t.Fatalf("never-predicate emitted %d", len(items))
	}
	if n := db.Pool.PinnedFrames(); n != 0 {
		t.Errorf("pinned frames after aborts = %d", n)
	}
}

// neverPred rejects everything.
type neverPred struct{}

func (neverPred) Eval(*object.Object) bool { return false }
func (neverPred) Selectivity() float64     { return 0.01 }
func (neverPred) String() string           { return "never" }
