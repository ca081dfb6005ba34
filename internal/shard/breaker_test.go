package shard

import (
	"context"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic breaker
// transitions.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time          { return c.t }
func (c *fakeClock) Advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func breakerCfg(clk *fakeClock) BreakerConfig {
	return BreakerConfig{
		FailureThreshold:  3,
		OpenTimeout:       100 * time.Millisecond,
		HalfOpenSuccesses: 2,
		Clock:             clk.Now,
	}
}

func TestBreakerTripsAfterConsecutiveFailures(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(breakerCfg(clk))

	// Interleaved successes reset the consecutive-failure count.
	for i := 0; i < 10; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused attempt %d", i)
		}
		b.Record(i%3 == 2) // two failures, then a success, repeated
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state after interleaved failures = %v, want closed", got)
	}
	if got := b.Trips(); got != 0 {
		t.Fatalf("trips = %d, want 0", got)
	}

	// Reset the streak (the loop above ended on a failure), then three
	// consecutive failures trip it.
	b.Allow()
	b.Record(true)
	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("attempt %d refused before the trip", i)
		}
		b.Record(false)
	}
	if got := b.State(); got != Open {
		t.Fatalf("state = %v, want open", got)
	}
	if got := b.Trips(); got != 1 {
		t.Fatalf("trips = %d, want 1", got)
	}
	if b.Allow() {
		t.Fatal("open breaker admitted an attempt before the timeout")
	}
}

func TestBreakerHalfOpenSingleProbeAndClose(t *testing.T) {
	clk := newFakeClock()
	trips := 0
	cfg := breakerCfg(clk)
	cfg.OnTrip = func() { trips++ }
	b := NewBreaker(cfg)
	for i := 0; i < 3; i++ {
		b.Allow()
		b.Record(false)
	}
	if trips != 1 {
		t.Fatalf("OnTrip ran %d times, want 1", trips)
	}

	clk.Advance(100 * time.Millisecond)
	if got := b.State(); got != HalfOpen {
		t.Fatalf("state after timeout = %v, want half-open", got)
	}
	if !b.Allow() {
		t.Fatal("half-open breaker refused the first probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	b.Record(true)
	// One success is not enough at HalfOpenSuccesses=2.
	if got := b.State(); got != HalfOpen {
		t.Fatalf("state after one probe success = %v, want half-open", got)
	}
	if !b.Allow() {
		t.Fatal("half-open breaker refused the second probe")
	}
	b.Record(true)
	if got := b.State(); got != Closed {
		t.Fatalf("state after two probe successes = %v, want closed", got)
	}
	if !b.Allow() {
		t.Fatal("re-closed breaker refused traffic")
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(breakerCfg(clk))
	for i := 0; i < 3; i++ {
		b.Allow()
		b.Record(false)
	}
	clk.Advance(150 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	b.Record(false)
	if got := b.State(); got != Open {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	if got := b.Trips(); got != 2 {
		t.Fatalf("trips = %d, want 2", got)
	}
	// The open window restarts from the failed probe.
	clk.Advance(50 * time.Millisecond)
	if b.Allow() {
		t.Fatal("re-opened breaker admitted an attempt inside the restarted window")
	}
	clk.Advance(50 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("re-opened breaker refused the probe after the restarted window")
	}
}

func TestBudgetTakeAndContext(t *testing.T) {
	b := NewBudget(2)
	if !b.Take() || !b.Take() {
		t.Fatal("budget of 2 refused its tokens")
	}
	if b.Take() {
		t.Fatal("exhausted budget granted a token")
	}
	if got := b.left.Load(); got != 0 {
		t.Fatalf("%d tokens left, want 0", got)
	}

	unlimited := NewBudget(-1)
	for i := 0; i < 1000; i++ {
		if !unlimited.Take() {
			t.Fatalf("unlimited budget refused token %d", i)
		}
	}

	ctx := WithBudget(context.Background(), b)
	if got := BudgetFrom(ctx); got != b {
		t.Fatal("BudgetFrom did not return the attached budget")
	}
	if got := BudgetFrom(context.Background()); got != nil {
		t.Fatalf("BudgetFrom(empty ctx) = %v, want nil", got)
	}
}
