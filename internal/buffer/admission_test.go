package buffer

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"revelation/internal/disk"
)

// admissionPool builds a small pool over a simulated device.
func admissionPool(t *testing.T, frames, pages int) *Pool {
	t.Helper()
	p, _ := newPool(t, pages, frames)
	return p
}

func TestReserveAccounting(t *testing.T) {
	p := admissionPool(t, 8, 8)
	r1, err := p.Reserve(5)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.ReservedFrames(); got != 5 {
		t.Fatalf("reserved %d, want 5", got)
	}
	r2, err := p.Reserve(3)
	if err != nil {
		t.Fatal(err)
	}
	// 5 + 3 == 8: full. The next reservation must shed, not queue.
	if _, err := p.Reserve(1); !errors.Is(err, ErrAdmission) {
		t.Fatalf("oversubscribed Reserve: %v, want ErrAdmission", err)
	}
	r1.Release()
	r1.Release() // idempotent
	if got := p.ReservedFrames(); got != 3 {
		t.Fatalf("after release: reserved %d, want 3", got)
	}
	if r1.Frames() != 0 || r2.Frames() != 3 {
		t.Fatalf("quota views: r1=%d r2=%d, want 0 and 3", r1.Frames(), r2.Frames())
	}
	r2.Release()
	if err := p.Close(); err != nil {
		t.Fatalf("close after full release: %v", err)
	}
}

func TestCloseRefusesLeakedReservation(t *testing.T) {
	p := admissionPool(t, 4, 4)
	r, err := p.Reserve(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err == nil {
		t.Fatal("Close succeeded with a live reservation")
	}
	r.Release()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Reserve(1); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Reserve on closed pool: %v, want ErrPoolClosed", err)
	}
}

// fixWait is the sequence production runs when the pool is exhausted
// (the assembly operator, after shedding its own pins): FixAs, on
// ErrNoFrames WaitFrame, retry — until the fix lands or ctx ends.
func fixWait(ctx context.Context, p *Pool, id disk.PageID) (*Frame, error) {
	for {
		f, err := p.FixAs(ctx, id)
		if !errors.Is(err, ErrNoFrames) {
			return f, err
		}
		if err := p.WaitFrame(ctx); err != nil {
			return nil, err
		}
	}
}

// TestFixCtxWaitsForFrame: with every frame pinned, a fix that waits
// must park instead of spinning on ErrNoFrames, and succeed once an
// unfix frees a frame.
func TestFixCtxWaitsForFrame(t *testing.T) {
	p := admissionPool(t, 2, 4)
	f0, err := p.Fix(0)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := p.Fix(1)
	if err != nil {
		t.Fatal(err)
	}
	// Plain Fix never waits: immediate congestion error.
	if _, err := p.Fix(2); !errors.Is(err, ErrNoFrames) {
		t.Fatalf("Fix over full pool: %v, want ErrNoFrames", err)
	}
	done := make(chan error, 1)
	go func() {
		f, err := fixWait(context.Background(), p, 2)
		if err == nil {
			err = p.Unfix(f, false)
		}
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter park
	if err := p.Unfix(f1, false); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("waited fix: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the waiting fix did not wake after a frame freed")
	}
	if p.pinWaits.Value() == 0 {
		t.Error("asm_buffer_pin_waits_total did not move across a pin wait")
	}
	if got := p.pinWaitTimeouts.Value(); got != 0 {
		t.Errorf("%d pin-wait timeouts under a context that never ended", got)
	}
	if err := p.Unfix(f0, false); err != nil {
		t.Fatal(err)
	}
}

// TestFixCtxDeadlineBoundsWait: the wait ends at the context deadline,
// surfaces the lifecycle cause and counts as a timed-out pin wait.
func TestFixCtxDeadlineBoundsWait(t *testing.T) {
	p := admissionPool(t, 1, 2)
	f0, err := p.Fix(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = fixWait(ctx, p, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wait past deadline: %v, want context.DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("waited %v past a 30ms deadline", waited)
	}
	if waits, timeouts := p.pinWaits.Value(), p.pinWaitTimeouts.Value(); waits == 0 || timeouts != 1 {
		t.Errorf("pin waits %d, timeouts %d; want > 0 and exactly 1", waits, timeouts)
	}
	if err := p.Unfix(f0, false); err != nil {
		t.Fatal(err)
	}
}

// TestTwoQueriesTinyPoolBothComplete is the satellite regression test:
// two concurrent pin workloads over a pool with fewer frames than
// their combined demand must both run to completion — bounded waits
// resolve the contention with no deadlock and no starvation.
func TestTwoQueriesTinyPoolBothComplete(t *testing.T) {
	const pages = 16
	p := admissionPool(t, 3, pages)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	query := func(start int) error {
		for round := 0; round < 50; round++ {
			for i := 0; i < pages; i++ {
				f, err := fixWait(ctx, p, disk.PageID((start+i)%pages))
				if err != nil {
					return err
				}
				// Hold two pins at a time to force overlap: combined
				// worst case (4) exceeds the 3-frame pool.
				g, err := fixWait(ctx, p, disk.PageID((start+i+1)%pages))
				if err != nil {
					p.Unfix(f, false)
					return err
				}
				if err := p.Unfix(g, false); err != nil {
					return err
				}
				if err := p.Unfix(f, false); err != nil {
					return err
				}
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			errs[q] = query(q * pages / 2)
		}(q)
	}
	wg.Wait()
	for q, err := range errs {
		if err != nil {
			t.Errorf("query %d: %v", q, err)
		}
	}
	if got := p.PinnedFrames(); got != 0 {
		t.Fatalf("leaked pins: %d frames still pinned", got)
	}
	if got := p.pinWaitTimeouts.Value(); got != 0 {
		t.Errorf("%d pin-wait timeouts in a run that finished inside its deadline", got)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}
