package disk

import (
	"errors"
	"testing"
	"time"
)

func TestFaultyDisarmedIsTransparent(t *testing.T) {
	inner := New(16)
	f := NewFaulty(inner, FaultConfig{})
	buf := make([]byte, DefaultPageSize)
	for p := 0; p < 16; p++ {
		if err := f.ReadPage(PageID(p), buf); err != nil {
			t.Fatalf("disarmed read %d: %v", p, err)
		}
		if err := f.WritePage(PageID(p), buf); err != nil {
			t.Fatalf("disarmed write %d: %v", p, err)
		}
	}
	if st := f.FaultStats(); st != (FaultStats{}) {
		t.Errorf("disarmed injector counted faults: %+v", st)
	}
	if f.Stats().Reads != 16 {
		t.Errorf("reads not forwarded: %+v", f.Stats())
	}
}

func TestFaultyTransientRecoversAfterN(t *testing.T) {
	inner := New(256)
	f := NewFaulty(inner, FaultConfig{Seed: 7, TransientRate: 0.3, TransientFailures: 2})
	buf := make([]byte, DefaultPageSize)

	faulty, clean := 0, 0
	for p := 0; p < 256; p++ {
		id := PageID(p)
		if !f.TransientlyFaulty(id) {
			clean++
			if err := f.ReadPage(id, buf); err != nil {
				t.Fatalf("clean page %d: %v", p, err)
			}
			continue
		}
		faulty++
		for i := 0; i < 2; i++ {
			err := f.ReadPage(id, buf)
			if !errors.Is(err, ErrTransient) {
				t.Fatalf("page %d failure %d: err = %v, want ErrTransient", p, i, err)
			}
			if !Retryable(err) {
				t.Fatalf("transient error not Retryable: %v", err)
			}
		}
		if err := f.ReadPage(id, buf); err != nil {
			t.Fatalf("page %d after %d failures: %v", p, 2, err)
		}
	}
	if faulty == 0 || clean == 0 {
		t.Fatalf("degenerate injection split: %d faulty, %d clean", faulty, clean)
	}
	// ~30% of 256 pages should be transiently faulty.
	if faulty < 40 || faulty > 120 {
		t.Errorf("transient rate 0.3 marked %d/256 pages", faulty)
	}
	if st := f.FaultStats(); st.Transient != int64(2*faulty) {
		t.Errorf("Transient = %d, want %d", st.Transient, 2*faulty)
	}
}

func TestFaultyPermanentNeverRecovers(t *testing.T) {
	inner := New(256)
	f := NewFaulty(inner, FaultConfig{Seed: 11, PermanentRate: 0.1})
	buf := make([]byte, DefaultPageSize)
	poisoned := 0
	for p := 0; p < 256; p++ {
		id := PageID(p)
		want := f.PermanentlyFaulty(id)
		for i := 0; i < 3; i++ {
			err := f.ReadPage(id, buf)
			if want {
				if !errors.Is(err, ErrPermanent) {
					t.Fatalf("page %d attempt %d: err = %v, want ErrPermanent", p, i, err)
				}
				if Retryable(err) {
					t.Fatalf("permanent error classified retryable: %v", err)
				}
			} else if err != nil {
				t.Fatalf("clean page %d: %v", p, err)
			}
		}
		if want {
			poisoned++
		}
	}
	if poisoned < 10 || poisoned > 50 {
		t.Errorf("permanent rate 0.1 poisoned %d/256 pages", poisoned)
	}
}

func TestFaultyDeterministicAcrossInstances(t *testing.T) {
	cfg := FaultConfig{Seed: 42, TransientRate: 0.2, PermanentRate: 0.05}
	a := NewFaulty(New(128), cfg)
	b := NewFaulty(New(128), cfg)
	for p := 0; p < 128; p++ {
		id := PageID(p)
		if a.PermanentlyFaulty(id) != b.PermanentlyFaulty(id) {
			t.Fatalf("permanent decision diverges at page %d", p)
		}
		if a.TransientlyFaulty(id) != b.TransientlyFaulty(id) {
			t.Fatalf("transient decision diverges at page %d", p)
		}
	}
}

func TestFaultyWritesGated(t *testing.T) {
	inner := New(64)
	f := NewFaulty(inner, FaultConfig{Seed: 3, PermanentRate: 1})
	buf := make([]byte, DefaultPageSize)
	// Writes pass by default even when every read is poisoned.
	if err := f.WritePage(5, buf); err != nil {
		t.Fatalf("gated write faulted: %v", err)
	}
	f.SetConfig(FaultConfig{Seed: 3, PermanentRate: 1, Writes: true})
	if err := f.WritePage(5, buf); !errors.Is(err, ErrPermanent) {
		t.Fatalf("write with Writes=true: err = %v, want ErrPermanent", err)
	}
}

func TestRetryPolicyBackoff(t *testing.T) {
	rp := RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Microsecond, MaxBackoff: 4 * time.Microsecond}
	if got := rp.Backoff(0); got != time.Microsecond {
		t.Errorf("Backoff(0) = %v", got)
	}
	if got := rp.Backoff(10); got != 4*time.Microsecond {
		t.Errorf("Backoff(10) = %v, want cap", got)
	}
}

// TestStallFaults: stall injection is deterministic per page, delays
// the access without failing it, and is counted separately from error
// faults.
func TestStallFaults(t *testing.T) {
	dev := New(64)
	f := NewFaulty(dev, FaultConfig{
		Seed:      7,
		StallRate: 0.25,
		Stall:     5 * time.Millisecond,
	})

	// Find one stalled and one clean page; the seeded decision must be
	// stable across calls.
	stalled, clean := PageID(InvalidPage), PageID(InvalidPage)
	for p := PageID(0); int(p) < dev.NumPages(); p++ {
		if f.Stalled(p) {
			stalled = p
		} else {
			clean = p
		}
	}
	if stalled == InvalidPage || clean == InvalidPage {
		t.Fatalf("degenerate stall set: stalled=%v clean=%v", stalled, clean)
	}
	if !f.Stalled(stalled) || f.Stalled(clean) {
		t.Fatal("stall decision is not stable")
	}

	buf := make([]byte, dev.PageSize())
	start := time.Now()
	if err := f.ReadPage(stalled, buf); err != nil {
		t.Fatalf("stalled read failed: %v", err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Errorf("stalled read took %v, want >= 5ms", d)
	}
	if err := f.ReadPage(clean, buf); err != nil {
		t.Fatalf("clean read failed: %v", err)
	}
	st := f.FaultStats()
	if st.Stalls != 1 {
		t.Errorf("Stalls = %d, want 1", st.Stalls)
	}
	if st.Transient != 0 || st.Permanent != 0 {
		t.Errorf("stall leaked into other counters: %+v", st)
	}

	// Writes are exempt unless Writes is set, matching the error paths.
	start = time.Now()
	if err := f.WritePage(stalled, buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	if d := time.Since(start); d >= 5*time.Millisecond {
		t.Errorf("write stalled for %v with Writes unset", d)
	}
	if got := f.FaultStats().Stalls; got != 1 {
		t.Errorf("write bumped Stalls to %d", got)
	}
}

func TestBrownoutDeterministicEpisode(t *testing.T) {
	inner := New(4)
	f := NewFaulty(inner, FaultConfig{BrownoutStart: 4, BrownoutLen: 10, BrownoutRamp: 3})
	buf := make([]byte, DefaultPageSize)

	// Start 4, length 10, ramp 3: accesses 4..6 ramp up (1/4, 2/4,
	// 3/4), 7..10 hold the plateau and refuse, 11..13 ramp back down.
	var failed []int
	for i := 0; i < 20; i++ {
		intensity := f.BrownoutIntensity()
		switch {
		case i < 4 || i >= 14:
			if intensity != 0 {
				t.Fatalf("access %d: intensity = %v outside the episode", i, intensity)
			}
		case i >= 7 && i <= 10:
			if intensity != 1 {
				t.Fatalf("access %d: intensity = %v, want plateau 1", i, intensity)
			}
		default:
			if intensity <= 0 || intensity >= 1 {
				t.Fatalf("access %d: intensity = %v, want a ramp in (0,1)", i, intensity)
			}
		}
		err := f.ReadPage(0, buf)
		if err != nil {
			if !errors.Is(err, ErrTransient) || !Retryable(err) {
				t.Fatalf("access %d: err = %v, want a retryable ErrTransient", i, err)
			}
			failed = append(failed, i)
		}
	}
	want := []int{7, 8, 9, 10}
	if len(failed) != len(want) {
		t.Fatalf("refused accesses = %v, want %v", failed, want)
	}
	for i := range want {
		if failed[i] != want[i] {
			t.Fatalf("refused accesses = %v, want %v", failed, want)
		}
	}
	st := f.FaultStats()
	if st.Brownouts != 4 {
		t.Errorf("Brownouts = %d, want 4", st.Brownouts)
	}
	if st.Transient != 0 || st.Permanent != 0 || st.Stalls != 0 {
		t.Errorf("brownout leaked into other counters: %+v", st)
	}

	// Re-arming resets the access clock: the episode replays identically.
	f.SetConfig(FaultConfig{BrownoutStart: 4, BrownoutLen: 10, BrownoutRamp: 3})
	for i := 0; i < 20; i++ {
		err := f.ReadPage(0, buf)
		refused := i >= 7 && i <= 10
		if refused != (err != nil) {
			t.Fatalf("replayed access %d: err = %v, want refused=%v", i, err, refused)
		}
	}
}

func TestBrownoutLeavesStalledPredicateAlone(t *testing.T) {
	inner := New(256)
	base := FaultConfig{Seed: 11, StallRate: 0.2}
	f := NewFaulty(inner, base)
	before := make([]bool, 256)
	anyStalled := false
	for p := range before {
		before[p] = f.Stalled(PageID(p))
		anyStalled = anyStalled || before[p]
	}
	if !anyStalled {
		t.Fatal("degenerate stall set: no page stalled at rate 0.2")
	}

	bcfg := base
	bcfg.BrownoutStart = 0
	bcfg.BrownoutLen = 1000
	bcfg.BrownoutRamp = 10
	f.SetConfig(bcfg)
	for p := range before {
		if f.Stalled(PageID(p)) != before[p] {
			t.Fatalf("page %d: Stalled changed when the brownout armed", p)
		}
	}
	// The predicate is pure: probing it 256 times must not have
	// advanced the brownout's access clock past the first ramp step.
	if got, want := f.BrownoutIntensity(), 1.0/11.0; got != want {
		t.Errorf("BrownoutIntensity after predicate probes = %v, want %v", got, want)
	}
}

func TestJitterBackoffSeededAndBounded(t *testing.T) {
	rp := RetryPolicy{MaxAttempts: 8, BaseBackoff: time.Millisecond, MaxBackoff: 16 * time.Millisecond}
	a, b, other := NewJitter(42), NewJitter(42), NewJitter(43)
	differs := false
	for i := 0; i < 64; i++ {
		retry := i % 5
		ceiling := rp.Backoff(retry)
		da, db, dc := a.Backoff(rp, retry), b.Backoff(rp, retry), other.Backoff(rp, retry)
		if da != db {
			t.Fatalf("draw %d: same seed diverged: %v vs %v", i, da, db)
		}
		if da <= 0 || da > ceiling {
			t.Fatalf("draw %d: %v outside (0, %v]", i, da, ceiling)
		}
		if da != dc {
			differs = true
		}
	}
	if !differs {
		t.Fatal("seeds 42 and 43 produced identical delay sequences")
	}
	var nj *Jitter
	if got := nj.Backoff(rp, 3); got != rp.Backoff(3) {
		t.Errorf("nil jitter = %v, want the deterministic %v", got, rp.Backoff(3))
	}
}
