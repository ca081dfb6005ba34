package assembly_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"revelation/internal/assembly"
	"revelation/internal/buffer"
	"revelation/internal/disk"
	"revelation/internal/leakcheck"
	"revelation/internal/volcano"
)

// failingInput is an input whose Open fails.
type failingInput struct{ volcano.Iterator }

var errInputDown = errors.New("input: injected open fault")

func (failingInput) Open() error { return errInputDown }

// TestLaneWorkersStopOnEveryExit: the goroutines that overlap a batch's
// reads belong to the query. However it ends — drained, closed half
// way, failed on a device fault, cancelled, refused at Open — none of
// them is left behind, and neither is a pin.
func TestLaneWorkersStopOnEveryExit(t *testing.T) {
	db, striped := buildStriped(t, 120, 3)
	pool := db.Pool
	newOp := func(input volcano.Iterator, reserve int) *assembly.Operator {
		if err := pool.EvictAll(); err != nil {
			t.Fatal(err)
		}
		return assembly.New(input, db.Store, db.Template, assembly.Options{
			Window:          10,
			CustomScheduler: assembly.NewMultiElevator(3, striped.DeviceOf),
			ShardPrefetch:   true,
			ReserveFrames:   reserve,
		})
	}
	some := func(op *assembly.Operator, n int) error {
		for i := 0; i < n; i++ {
			if _, err := op.Next(); err != nil {
				return err
			}
		}
		return nil
	}
	exits := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"drained", func(t *testing.T) {
			if out := drainAssembly(t, newOp(rootsSource(db.Roots), 0)); len(out) != len(db.Roots) {
				t.Fatalf("assembled %d of %d", len(out), len(db.Roots))
			}
		}},
		{"closed half way, twice", func(t *testing.T) {
			op := newOp(rootsSource(db.Roots), 0)
			if err := op.Open(); err != nil {
				t.Fatal(err)
			}
			if err := some(op, 20); err != nil {
				t.Fatal(err)
			}
			if err := op.Close(); err != nil {
				t.Fatal(err)
			}
			if err := op.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
		}},
		{"device fault", func(t *testing.T) {
			op := newOp(rootsSource(db.Roots), 0)
			if err := op.Open(); err != nil {
				t.Fatal(err)
			}
			if err := some(op, 5); err != nil {
				t.Fatal(err)
			}
			dev := striped.Devices()[1].(*disk.Sim)
			dev.SetFault(func(disk.PageID, bool) error { return fmt.Errorf("%w: injected", disk.ErrPermanent) })
			defer dev.SetFault(nil)
			if err := some(op, len(db.Roots)); !errors.Is(err, disk.ErrPermanent) {
				t.Fatalf("Next with a dead device: %v", err)
			}
			op.Close()
		}},
		{"cancelled", func(t *testing.T) {
			op := newOp(rootsSource(db.Roots), 0)
			ctx, cancel := context.WithCancel(context.Background())
			op.BindContext(ctx)
			if err := op.Open(); err != nil {
				t.Fatal(err)
			}
			if err := some(op, 5); err != nil {
				t.Fatal(err)
			}
			cancel()
			if err := some(op, len(db.Roots)); !errors.Is(err, context.Canceled) {
				t.Fatalf("Next after cancel: %v", err)
			}
			op.Close()
		}},
		{"input refuses to open", func(t *testing.T) {
			if err := newOp(failingInput{rootsSource(db.Roots)}, 0).Open(); !errors.Is(err, errInputDown) {
				t.Fatalf("Open: %v", err)
			}
		}},
		{"admission refused", func(t *testing.T) {
			if err := newOp(rootsSource(db.Roots), pool.Size()+1).Open(); !errors.Is(err, buffer.ErrAdmission) {
				t.Fatalf("Open: %v", err)
			}
		}},
	}
	for _, e := range exits {
		t.Run(e.name, func(t *testing.T) {
			before := leakcheck.Snapshot()
			e.run(t)
			leakcheck.Check(t, before)
			if n := pool.PinnedFrames(); n != 0 {
				t.Errorf("%d frames left pinned", n)
			}
		})
	}
}
