package shard

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"revelation/internal/disk"
	"revelation/internal/metrics"
)

// newMembers builds one single-page stub member per name, in the given
// order. Assignment is a pure function of the name set, so stub devices
// are enough to exercise routing.
func newMembers(names []string) []Member {
	ms := make([]Member, len(names))
	for i, n := range names {
		ms[i] = Member{Name: n, Primary: disk.New(1)}
	}
	return ms
}

// assignment maps every page in [0, n) to its owning member name.
func assignment(t *testing.T, names []string, n int) map[disk.PageID]string {
	t.Helper()
	r, err := New(Config{Members: newMembers(names)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer r.Close()
	out := make(map[disk.PageID]string, n)
	for p := 0; p < n; p++ {
		out[disk.PageID(p)] = r.MemberName(r.ShardOf(disk.PageID(p)))
	}
	return out
}

func TestRouterAssignmentDeterministic(t *testing.T) {
	const pages = 4096
	names := []string{"alpha", "bravo", "charlie", "delta", "echo"}
	base := assignment(t, names, pages)

	// A fresh router over the same names routes identically: no request
	// history, no process state, no randomness.
	again := assignment(t, names, pages)
	// And slice order must not matter — the hash identity is the name
	// set, not the member index.
	permuted := assignment(t, []string{"delta", "alpha", "echo", "charlie", "bravo"}, pages)
	for p := 0; p < pages; p++ {
		pid := disk.PageID(p)
		if again[pid] != base[pid] {
			t.Fatalf("page %d: fresh router assigns %s, first assigned %s", p, again[pid], base[pid])
		}
		if permuted[pid] != base[pid] {
			t.Fatalf("page %d: permuted member order assigns %s, want %s", p, permuted[pid], base[pid])
		}
	}

	// Sanity: every member owns a non-trivial share.
	byName := map[string]int{}
	for _, n := range base {
		byName[n]++
	}
	for _, n := range names {
		if byName[n] < pages/len(names)/2 {
			t.Fatalf("member %s owns only %d of %d pages — rendezvous hash is badly skewed", n, byName[n], pages)
		}
	}
}

func TestRouterRebalanceMovesOnlyToNewMember(t *testing.T) {
	const pages = 4096
	names := []string{"alpha", "bravo", "charlie", "delta", "echo"}
	before := assignment(t, names, pages)
	after := assignment(t, append(append([]string{}, names...), "foxtrot"), pages)

	moved := 0
	for p := 0; p < pages; p++ {
		pid := disk.PageID(p)
		if after[pid] == before[pid] {
			continue
		}
		moved++
		// Rendezvous property: adding a member can only move pages TO
		// it; no page shuffles between surviving members.
		if after[pid] != "foxtrot" {
			t.Fatalf("page %d moved %s -> %s, not to the new member", p, before[pid], after[pid])
		}
	}
	// The expected fraction is 1/6 ≈ 17%; allow generous slack for hash
	// variance at 4096 keys.
	frac := float64(moved) / pages
	if frac < 0.08 || frac > 0.28 {
		t.Fatalf("adding 1 of 6 members moved %.1f%% of pages, want ≈16.7%%", 100*frac)
	}
}

// fillPages writes a distinct recognizable pattern to every page of dev.
func fillPages(t *testing.T, dev disk.Device, tag byte) {
	t.Helper()
	buf := make([]byte, dev.PageSize())
	for p := 0; p < dev.NumPages(); p++ {
		for i := range buf {
			buf[i] = tag ^ byte(p)
		}
		if err := dev.WritePage(disk.PageID(p), buf); err != nil {
			t.Fatalf("fill page %d: %v", p, err)
		}
	}
}

func TestRouterFailoverBreakerAndStalenessGuard(t *testing.T) {
	clk := newFakeClock()
	prim := disk.NewFaulty(disk.New(8), disk.FaultConfig{})
	repl := disk.New(8)
	fillPages(t, prim, 0)
	fillPages(t, repl, 0)

	floor := uint64(5)
	applied := uint64(10)
	r, err := New(Config{
		Members: []Member{{
			Name:       "s0",
			Primary:    prim,
			Replica:    repl,
			AppliedLSN: func() uint64 { return applied },
		}},
		Breaker: BreakerConfig{
			FailureThreshold:  2,
			OpenTimeout:       100 * time.Millisecond,
			HalfOpenSuccesses: 1,
			Clock:             clk.Now,
		},
		Retry:    disk.RetryPolicy{MaxAttempts: 1},
		LSNFloor: func() uint64 { return floor },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer r.Close()

	buf := make([]byte, r.PageSize())
	read := func(p disk.PageID) error { return r.ReadPage(p, buf) }
	check := func(p disk.PageID) {
		t.Helper()
		if buf[0] != byte(p) {
			t.Fatalf("page %d read back %#x, want %#x", p, buf[0], byte(p))
		}
	}

	// Healthy: the primary serves.
	if err := read(3); err != nil {
		t.Fatalf("healthy read: %v", err)
	}
	check(3)
	if got := r.DegradedReads(0); got != 0 {
		t.Fatalf("degraded reads after healthy read = %d, want 0", got)
	}

	// Break the primary: every read fails transiently, forever.
	prim.SetConfig(disk.FaultConfig{Seed: 7, TransientRate: 1, TransientFailures: 1 << 30})

	// First failure: same-attempt failover to the replica; breaker still
	// closed (one of two needed failures).
	if err := read(4); err != nil {
		t.Fatalf("degraded read 1: %v", err)
	}
	check(4)
	if got, want := r.DegradedReads(0), int64(1); got != want {
		t.Fatalf("degraded reads = %d, want %d", got, want)
	}
	if got := r.BreakerState(0); got != Closed {
		t.Fatalf("breaker after 1 failure = %v, want closed", got)
	}

	// Second failure trips the breaker.
	if err := read(5); err != nil {
		t.Fatalf("degraded read 2: %v", err)
	}
	check(5)
	if got := r.BreakerState(0); got != Open {
		t.Fatalf("breaker after 2 failures = %v, want open", got)
	}
	if got := r.Trips(0); got != 1 {
		t.Fatalf("trips = %d, want 1", got)
	}

	// Open breaker: reads skip the primary entirely.
	primReads := prim.Stats().Reads
	if err := read(6); err != nil {
		t.Fatalf("breaker-open read: %v", err)
	}
	check(6)
	if got := prim.Stats().Reads; got != primReads {
		t.Fatalf("open breaker still touched the primary (%d -> %d reads)", primReads, got)
	}
	if got := r.DegradedReads(0); got != 3 {
		t.Fatalf("degraded reads = %d, want 3", got)
	}

	// Staleness guard: a replica behind the LSN floor may not serve.
	applied = 3
	err = read(7)
	if err == nil {
		t.Fatal("stale replica served a degraded read")
	}
	if !errors.Is(err, ErrShardDown) || !disk.Retryable(err) {
		t.Fatalf("stale-replica error = %v, want ErrShardDown wrapping a transient", err)
	}
	// The refused access still counts as a degraded read on the shard.
	if got := r.DegradedReads(0); got != 4 {
		t.Fatalf("degraded reads after refused access = %d, want 4", got)
	}
	applied = 10

	// Heal the primary; after the open timeout one successful probe
	// closes the breaker (HalfOpenSuccesses=1).
	prim.SetConfig(disk.FaultConfig{})
	clk.Advance(100 * time.Millisecond)
	if got := r.BreakerState(0); got != HalfOpen {
		t.Fatalf("breaker after timeout = %v, want half-open", got)
	}
	if err := read(2); err != nil {
		t.Fatalf("half-open probe read: %v", err)
	}
	check(2)
	if got := r.BreakerState(0); got != Closed {
		t.Fatalf("breaker after successful probe = %v, want closed", got)
	}
	if got := r.DegradedReads(0); got != 4 {
		t.Fatalf("probe success counted as degraded: %d reads", got)
	}
}

func TestRouterRetryBudget(t *testing.T) {
	reg := metrics.NewRegistry()
	prim := disk.NewFaulty(disk.New(4), disk.FaultConfig{})
	fillPages(t, prim, 0)
	prim.SetConfig(disk.FaultConfig{Seed: 1, TransientRate: 1, TransientFailures: 1 << 30})
	r, err := New(Config{
		Members:  []Member{{Name: "s0", Primary: prim}},
		Retry:    disk.RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond},
		Registry: reg,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer r.Close()

	buf := make([]byte, r.PageSize())

	// A budget of 1 allows exactly one retry; the second retry is
	// refused and the failure surfaces immediately.
	b := NewBudget(1)
	ctx := WithBudget(context.Background(), b)
	err = r.ReadPageCtx(ctx, 0, buf)
	if err == nil {
		t.Fatal("read through an all-transient shard succeeded")
	}
	if !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("error = %v, want a retry-budget-exhausted wrap", err)
	}
	if !disk.Retryable(err) {
		t.Fatalf("budget-exhausted error = %v, want transient (the shard may recover)", err)
	}
	if got := b.left.Load(); got != 0 {
		t.Fatalf("budget of 1 has %d left, want 0", got)
	}
	snap := reg.Snapshot()
	if got := snap.Value("asm_shard_retries_total"); got != 1 {
		t.Fatalf("asm_shard_retries_total = %d, want 1", got)
	}
	if got := snap.Sum("asm_shard_budget_exhausted_total"); got != 1 {
		t.Fatalf("asm_shard_budget_exhausted_total = %d, want 1", got)
	}

	// Without a budget in the context the policy's attempt cap governs:
	// MaxAttempts=4 means 3 more retries.
	if err := r.ReadPage(0, buf); err == nil {
		t.Fatal("read through an all-transient shard succeeded")
	}
	if got := reg.Snapshot().Value("asm_shard_retries_total"); got != 4 {
		t.Fatalf("asm_shard_retries_total = %d, want 4 (1 budgeted + 3 uncapped)", got)
	}
}

// TestRoutedReadAllocs pins a routed page read at zero allocations, on
// members without a replica and on members whose replica is fresh: a
// read of a healthy primary is one device call, whatever stands beside
// it. Each member serves far more than sixteen reads, so a per-shard
// warm-up that ended in extra work per read would show.
func TestRoutedReadAllocs(t *testing.T) {
	for _, replicas := range []bool{false, true} {
		members := newMembers([]string{"alpha", "bravo", "charlie"})
		var repls []disk.Device
		for i := range members {
			members[i].Primary = disk.New(64)
			if replicas {
				members[i].Replica = disk.New(64)
				repls = append(repls, members[i].Replica)
			}
		}
		r, err := New(Config{Members: members})
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, r.PageSize())
		p := disk.PageID(0)
		allocs := testing.AllocsPerRun(600, func() {
			if err := r.ReadPage(p, buf); err != nil {
				t.Fatal(err)
			}
			p = (p + 1) % 64
		})
		if allocs != 0 {
			t.Errorf("replicas=%v: Router.ReadPage allocates %.2f times per read, want 0", replicas, allocs)
		}
		for _, d := range repls {
			if got := d.Stats().Reads; got != 0 {
				t.Errorf("a fresh replica served %d reads of a healthy primary's", got)
			}
		}
		r.Close()
	}
}
