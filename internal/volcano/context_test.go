package volcano

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"revelation/internal/leakcheck"
)

// TestBindSliceCancellation: a bound in-memory source observes
// cancellation instead of streaming to exhaustion.
func TestBindSliceCancellation(t *testing.T) {
	items := make([]Item, 100)
	for i := range items {
		items[i] = i
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := NewSlice(items)
	Bind(ctx, s)
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		if _, err := s.Next(); err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
	}
	cancel()
	if _, err := s.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel: %v, want context.Canceled", err)
	}
}

// TestBindWalksPlan: Bind reaches operators below non-binding
// intermediates (Filter does not implement ContextBinder; its Slice
// input does).
func TestBindWalksPlan(t *testing.T) {
	items := []Item{1, 2, 3, 4, 5}
	ctx, cancel := context.WithCancel(context.Background())
	plan := NewFilter(NewSlice(items), func(Item) (bool, error) { return true, nil })
	Bind(ctx, plan)
	if err := plan.Open(); err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	if _, err := plan.Next(); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := plan.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("filtered Next after cancel: %v, want context.Canceled", err)
	}
}

// TestExchangeCancellationDrainsProducers is the cancellation-driven
// analogue of the early-close leak test: cancelling the bound context
// alone — no Close, no channel close ordering — must unblock every
// producer parked in send and drain the goroutines.
func TestExchangeCancellationDrainsProducers(t *testing.T) {
	before := leakcheck.Snapshot()
	items := make([]Item, 1000)
	for i := range items {
		items[i] = i
	}
	parts := PartitionSlice(items, 8)
	ex := NewExchange(8, func(part int) (Iterator, error) {
		return NewSlice(parts[part]), nil
	})
	ex.QueueLen = 1 // park producers in send mid-stream
	ctx, cancel := context.WithCancel(context.Background())
	Bind(ctx, ex)
	if err := ex.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Next(); err != nil {
		t.Fatal(err)
	}
	cancel()
	// Producers must exit on ctx.Done alone; only then does the drain
	// below observe a closed channel. Close comes later, as teardown.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			break // leakcheck below reports with stacks
		}
		time.Sleep(2 * time.Millisecond)
	}
	leakcheck.Check(t, before+1) // +1: the exchange's closer goroutine may still be parked on wg.Wait
	if _, err := ex.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel: %v, want context.Canceled", err)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	leakcheck.Check(t, before)
}

// endless is a source that never ends: it produces zeros forever.
type endless struct{}

func (endless) Open() error         { return nil }
func (endless) Next() (Item, error) { return 0, nil }
func (endless) Close() error        { return nil }

// TestExchangeDeadline: an expired deadline surfaces as
// context.DeadlineExceeded from Next, not as Done.
func TestExchangeDeadline(t *testing.T) {
	before := leakcheck.Snapshot()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	ex := NewExchange(2, func(part int) (Iterator, error) {
		return endless{}, nil
	})
	ex.QueueLen = 1
	Bind(ctx, ex)
	if err := ex.Open(); err != nil {
		t.Fatal(err)
	}
	var err error
	for i := 0; i < 1_000_000; i++ {
		if _, err = ex.Next(); err != nil {
			break
		}
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Next past deadline: %v, want context.DeadlineExceeded", err)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	leakcheck.Check(t, before)
}
