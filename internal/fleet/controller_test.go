package fleet

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"revelation/internal/metrics"
)

// fakeClock is a manually advanced clock for deterministic windows.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// probeMember is a scriptable member: probe failures, replica LSN, and
// the promotion outcome are all test-controlled.
type probeMember struct {
	mu       sync.Mutex
	down     bool
	lsn      uint64
	epoch    uint64
	promoted []uint64
}

func (p *probeMember) member(name string) Member {
	return Member{
		Name: name,
		Probe: func() error {
			p.mu.Lock()
			defer p.mu.Unlock()
			if p.down {
				return errors.New("probe: connection refused")
			}
			return nil
		},
		ReplicaLSN: func() uint64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return p.lsn
		},
		Epoch: func() uint64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return p.epoch
		},
		Promote: func(epoch uint64) error {
			p.mu.Lock()
			defer p.mu.Unlock()
			p.promoted = append(p.promoted, epoch)
			p.epoch = epoch
			return nil
		},
	}
}

func (p *probeMember) setDown(d bool) {
	p.mu.Lock()
	p.down = d
	p.mu.Unlock()
}

func TestControllerSustainedLossPromotes(t *testing.T) {
	clk := newFakeClock()
	reg := metrics.NewRegistry()
	floor := uint64(10)
	pm := &probeMember{lsn: 12}
	c := NewController(Config{
		Members:       []Member{pm.member("s0")},
		SustainedLoss: 500 * time.Millisecond,
		LSNFloor:      func() uint64 { return floor },
		Clock:         clk.Now,
		Registry:      reg,
	})
	defer c.Stop()

	// Healthy: nothing happens.
	if got := c.Tick(clk.Now()); len(got) != 0 {
		t.Fatalf("healthy tick promoted %v", got)
	}

	// A blip shorter than the window must NOT promote: down, window
	// half-elapsed, then back up.
	pm.setDown(true)
	c.Tick(clk.Now()) // marks down
	clk.Advance(250 * time.Millisecond)
	if got := c.Tick(clk.Now()); len(got) != 0 {
		t.Fatalf("mid-window tick promoted %v", got)
	}
	pm.setDown(false)
	c.Tick(clk.Now()) // clears
	clk.Advance(time.Hour)
	if got := c.Tick(clk.Now()); len(got) != 0 {
		t.Fatalf("recovered member promoted %v", got)
	}

	// Sustained loss: down through the whole window plus confirmation.
	pm.setDown(true)
	c.Tick(clk.Now())
	clk.Advance(500 * time.Millisecond)
	got := c.Tick(clk.Now())
	if len(got) != 1 || got[0].Member != "s0" || got[0].Epoch != 1 {
		t.Fatalf("sustained loss promoted %v, want s0 at epoch 1", got)
	}
	pm.mu.Lock()
	promoted := append([]uint64(nil), pm.promoted...)
	pm.mu.Unlock()
	if len(promoted) != 1 || promoted[0] != 1 {
		t.Fatalf("member saw promotions %v, want [1]", promoted)
	}
	if c.Promotions() != 1 {
		t.Fatalf("Promotions() = %d, want 1", c.Promotions())
	}
	if got := reg.Snapshot().Value("asm_fleet_promotions_total"); got != 1 {
		t.Fatalf("asm_fleet_promotions_total = %d, want 1", got)
	}

	// A promoted member is done: further ticks are no-ops even with the
	// probe still failing.
	clk.Advance(time.Hour)
	if got := c.Tick(clk.Now()); len(got) != 0 {
		t.Fatalf("already-promoted member promoted again: %v", got)
	}

	// /fleetz sees it.
	var sb strings.Builder
	c.WriteStatus(&sb)
	if !strings.Contains(sb.String(), "promoted (epoch 1)") {
		t.Errorf("status missing promotion:\n%s", sb.String())
	}
}

// TestControllerConfirmProbeVetoes checks that one confirmation probe
// succeeding cancels the promotion and resets the loss window — the
// jittered double-check that keeps a flapping network from burning
// replicas.
func TestControllerConfirmProbeVetoes(t *testing.T) {
	clk := newFakeClock()
	var calls int
	pm := &probeMember{lsn: 100}
	m := pm.member("s0")
	inner := m.Probe
	// The member recovers exactly when the confirmation probes start:
	// the initial probe fails, every later probe succeeds.
	m.Probe = func() error {
		calls++
		if calls == 1 {
			return errors.New("probe: lost")
		}
		_ = inner
		return nil
	}
	c := NewController(Config{
		Members:       []Member{m},
		SustainedLoss: time.Millisecond,
		Clock:         clk.Now,
	})
	defer c.Stop()

	c.Tick(clk.Now()) // marks down (first probe fails)
	clk.Advance(time.Minute)
	// Second tick: the tick probe now SUCCEEDS, clearing the episode
	// before confirmation even starts.
	if got := c.Tick(clk.Now()); len(got) != 0 {
		t.Fatalf("recovered member promoted %v", got)
	}

	// Now: tick probe fails but confirmation probes succeed.
	calls = 0
	fail := true
	m2 := pm.member("s1")
	m2.Probe = func() error {
		calls++
		if fail && calls <= 2 { // the down-marking and window ticks fail
			return errors.New("probe: lost")
		}
		return nil // confirmation probes pass
	}
	c2 := NewController(Config{
		Members:       []Member{m2},
		SustainedLoss: time.Millisecond,
		Clock:         clk.Now,
	})
	defer c2.Stop()
	c2.Tick(clk.Now())
	clk.Advance(time.Minute)
	if got := c2.Tick(clk.Now()); len(got) != 0 {
		t.Fatalf("member with passing confirmation probes promoted: %v", got)
	}
	if c2.Promotions() != 0 {
		t.Fatalf("Promotions() = %d, want 0", c2.Promotions())
	}
}

// TestControllerRefusesLaggingReplica checks the catch-up floor: a
// replica behind the data WAL's durable LSN is not promoted, and the
// refusal is visible in the status; once caught up, promotion fires.
func TestControllerRefusesLaggingReplica(t *testing.T) {
	clk := newFakeClock()
	pm := &probeMember{lsn: 3}
	c := NewController(Config{
		Members:       []Member{pm.member("s0")},
		SustainedLoss: time.Millisecond,
		LSNFloor:      func() uint64 { return 10 },
		Clock:         clk.Now,
	})
	defer c.Stop()

	pm.setDown(true)
	c.Tick(clk.Now())
	clk.Advance(time.Minute)
	if got := c.Tick(clk.Now()); len(got) != 0 {
		t.Fatalf("lagging replica promoted: %v", got)
	}
	sts := c.Status()
	if len(sts) != 1 || !strings.Contains(sts[0].LastErr, "behind floor") {
		t.Fatalf("status = %+v, want a behind-floor refusal", sts)
	}

	// Catch up; the next tick promotes.
	pm.mu.Lock()
	pm.lsn = 10
	pm.mu.Unlock()
	if got := c.Tick(clk.Now()); len(got) != 1 {
		t.Fatalf("caught-up replica not promoted: %v", got)
	}
}
