package shard

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"revelation/internal/disk"
	"revelation/internal/trace"
)

// Image tags: the primary and the replica hold distinguishable copies
// of every page, so a test can tell which leg filled a buffer.
const (
	primTag = byte(0x55)
	replTag = byte(0xAA)
)

// wantPage is the image fillPages(tag) wrote at page p.
func wantPage(size int, tag byte, p disk.PageID) []byte {
	return bytes.Repeat([]byte{tag ^ byte(p)}, size)
}

// hedgeWorld is a one-member router whose primary and replica are
// fault-injectable copies of the same page space (tagged apart), with
// breaker, retry, floor and hedge delay as given; applied (nil = always
// fresh) reports the replica's progress.
func hedgeWorld(t *testing.T, pages int, primCfg, replCfg disk.FaultConfig, applied func() uint64, cfg Config) (r *Router, prim, repl *disk.Faulty) {
	t.Helper()
	primSim, replSim := disk.New(pages), disk.New(pages)
	fillPages(t, primSim, primTag)
	fillPages(t, replSim, replTag)
	primSim.ResetStats()
	replSim.ResetStats()
	prim = disk.NewFaulty(primSim, primCfg)
	repl = disk.NewFaulty(replSim, replCfg)
	cfg.Members = []Member{{Name: "s0", Primary: prim, Replica: repl, AppliedLSN: applied}}
	if cfg.Retry.MaxAttempts == 0 {
		cfg.Retry = disk.RetryPolicy{MaxAttempts: 1}
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, prim, repl
}

// stalledAndClean picks one page the seeded stall set covers and one
// it does not, via the predicate — no timing needed.
func stalledAndClean(t *testing.T, fd *disk.Faulty, pages int) (stalled, clean disk.PageID) {
	t.Helper()
	stalled, clean = disk.InvalidPage, disk.InvalidPage
	for p := disk.PageID(0); int(p) < pages; p++ {
		if fd.Stalled(p) {
			stalled = p
		} else {
			clean = p
		}
	}
	if stalled == disk.InvalidPage || clean == disk.InvalidPage {
		t.Fatal("degenerate stall set")
	}
	return stalled, clean
}

// TestHedgedReadBeatsStall: a read of a stalled page is hedged to the
// replica after the configured delay and completes far sooner than the
// stall, with the hedge counted and traced; the losing primary leg,
// finishing after the read returned, leaves the caller's buffer alone
// (run under -race: a late write would be a reported race as well as a
// wrong image); a clean read does not hedge.
func TestHedgedReadBeatsStall(t *testing.T) {
	const pages, stall = 32, 100 * time.Millisecond
	col := trace.NewCollector()
	r, prim, _ := hedgeWorld(t, pages,
		disk.FaultConfig{Seed: 42, StallRate: 0.2, Stall: stall}, disk.FaultConfig{}, nil,
		Config{HedgeAfter: 5 * time.Millisecond, Tracer: trace.New(col)})
	st := r.shards[0]
	stalled, clean := stalledAndClean(t, prim, pages)

	buf := make([]byte, r.PageSize())
	start := time.Now()
	if err := r.ReadPage(stalled, buf); err != nil {
		t.Fatalf("hedged read: %v", err)
	}
	if d := time.Since(start); d >= stall {
		t.Errorf("hedged read took %v, stall is %v — hedge never fired", d, stall)
	}
	if !bytes.Equal(buf, wantPage(len(buf), replTag, stalled)) {
		t.Error("hedged read did not return the replica's image")
	}
	if got := st.hedges.Value(); got != 1 {
		t.Errorf("hedges = %d, want 1", got)
	}
	if got := st.hedgeWins.Value(); got != 1 {
		t.Errorf("hedge wins = %d, want 1", got)
	}
	if got := r.DegradedReads(0); got != 0 {
		t.Errorf("a hedge win counted as %d degraded reads, want 0", got)
	}

	// The primary leg is still asleep in its stall. Let it finish, then
	// look at the caller's buffer again.
	r.legs.Wait()
	if got := prim.Stats().Reads; got != 1 {
		t.Fatalf("primary leg never completed: %d device reads", got)
	}
	if !bytes.Equal(buf, wantPage(len(buf), replTag, stalled)) {
		t.Error("the losing leg overwrote the caller's buffer after the read returned")
	}

	if err := r.ReadPage(clean, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, wantPage(len(buf), primTag, clean)) {
		t.Error("clean read did not return the primary's image")
	}
	if got := st.hedges.Value(); got != 1 {
		t.Errorf("clean read hedged: hedges = %d", got)
	}
	if rep := trace.ReplayEvents(col.Events()); rep.Hedges != 1 {
		t.Errorf("replayed hedges = %d, want 1", rep.Hedges)
	}
}

// TestAdaptiveHedgeDelay: with no fixed HedgeAfter the shard learns its
// primary's latency distribution; until the warm-up sample exists it
// never hedges.
func TestAdaptiveHedgeDelay(t *testing.T) {
	r, _, _ := hedgeWorld(t, 32,
		disk.FaultConfig{Seed: 42, StallRate: 0.2, Stall: 2 * time.Millisecond}, disk.FaultConfig{}, nil, Config{})
	st := r.shards[0]
	buf := make([]byte, r.PageSize())
	for i := 0; i < hedgeWarmup; i++ {
		if d := st.hedgeDelay(0); d != 0 {
			t.Fatalf("hedge delay after %d reads = %v, want 0 before warm-up", i, d)
		}
		// Pages 0..15; some stall — they feed the distribution exactly
		// like production stragglers.
		if err := r.ReadPage(disk.PageID(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	// The delay tracks the observed quantile: at least the floor, far
	// below any client timeout.
	if d := st.hedgeDelay(0); d < hedgeFloor || d > time.Second {
		t.Errorf("adaptive hedge delay after warm-up = %v, outside [%v, 1s]", d, hedgeFloor)
	}
	if d := st.hedgeDelay(7 * time.Millisecond); d != 7*time.Millisecond {
		t.Errorf("configured HedgeAfter ignored: delay = %v", d)
	}
}

// TestHedgeBothLegsFail: the primary stalls and then fails, the replica
// fails at once. The read returns the first error to arrive (the
// replica's), the breaker books exactly one failure — the primary's —
// and the same-attempt fallback does not try the replica a second time.
func TestHedgeBothLegsFail(t *testing.T) {
	r, prim, repl := hedgeWorld(t, 8,
		disk.FaultConfig{Seed: 7, StallRate: 1, Stall: 20 * time.Millisecond, TransientRate: 1, TransientFailures: 1 << 30},
		disk.FaultConfig{Seed: 7, PermanentRate: 1}, nil,
		Config{HedgeAfter: time.Millisecond, Breaker: BreakerConfig{FailureThreshold: 2, OpenTimeout: time.Hour}})
	buf := make([]byte, r.PageSize())
	for read := int64(1); read <= 2; read++ {
		err := r.ReadPage(3, buf)
		if !errors.Is(err, disk.ErrPermanent) {
			t.Fatalf("read %d: err = %v, want the replica's permanent error (the first to arrive)", read, err)
		}
		if got := repl.FaultStats().Permanent; got != read {
			t.Errorf("read %d: replica tried %d times, want %d", read, got, read)
		}
		if got := prim.FaultStats().Transient; got != read {
			t.Errorf("read %d: primary tried %d times, want %d", read, got, read)
		}
		// One failure per read: the breaker (threshold 2) is still
		// closed after the first and opens on the second.
		if got, want := r.Trips(0), read/2; got != want {
			t.Errorf("read %d: breaker trips = %d, want %d", read, got, want)
		}
	}
	if got := r.shards[0].hedgeWins.Value(); got != 0 {
		t.Errorf("hedge wins = %d, want 0", got)
	}
}

// TestStaleReplicaNeverHedged: a replica below the LSN floor is not a
// hedge target — the read waits out the primary's stall and returns the
// primary's image; once the replica catches up, the same read hedges.
func TestStaleReplicaNeverHedged(t *testing.T) {
	const stall = 20 * time.Millisecond
	applied := uint64(5)
	r, _, repl := hedgeWorld(t, 8,
		disk.FaultConfig{Seed: 7, StallRate: 1, Stall: stall}, disk.FaultConfig{},
		func() uint64 { return applied },
		Config{HedgeAfter: time.Millisecond, LSNFloor: func() uint64 { return 10 }})
	st := r.shards[0]
	buf := make([]byte, r.PageSize())
	start := time.Now()
	if err := r.ReadPage(2, buf); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < stall {
		t.Errorf("read returned in %v, before the primary's %v stall ended", d, stall)
	}
	if !bytes.Equal(buf, wantPage(len(buf), primTag, 2)) {
		t.Error("read did not return the primary's image")
	}
	if got := st.hedges.Value(); got != 0 {
		t.Errorf("hedged %d reads to a stale replica", got)
	}
	if got := repl.Stats().Reads; got != 0 {
		t.Errorf("stale replica served %d reads", got)
	}

	applied = 10
	if err := r.ReadPage(2, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, wantPage(len(buf), replTag, 2)) {
		t.Error("caught-up replica did not win the hedge")
	}
	if got := st.hedges.Value(); got != 1 {
		t.Errorf("hedges after catch-up = %d, want 1", got)
	}
}

// TestReplicaLessReadAllocs pins the read path of a member that has no
// replica: the hedge lives behind the Replica != nil test, so members
// that cannot use it pay no goroutine, timer, channel, scratch page or
// clock read for it.
func TestReplicaLessReadAllocs(t *testing.T) {
	members := newMembers([]string{"alpha", "bravo", "charlie"})
	for i := range members {
		members[i].Primary = disk.New(64)
	}
	r, err := New(Config{Members: members})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, r.PageSize())
	p := disk.PageID(0)
	allocs := testing.AllocsPerRun(200, func() {
		if err := r.ReadPage(p, buf); err != nil {
			t.Fatal(err)
		}
		p = (p + 1) % 64
	})
	if allocs != 0 {
		t.Errorf("replica-less Router.ReadPage allocates %.1f times per read, want 0", allocs)
	}
}
