// Package fleet is the control plane over a sharded page-service
// fleet: a Controller that watches per-shard health and promotes a
// member's WAL-shipped replica to writable primary after sustained
// loss, and a Migrator that reshards live — copying a joining member's
// rendezvous-owed pages and cutting them over under WAL-logged
// ownership records so a crash mid-migration recovers to exactly-one-
// owner state.
//
// Both halves drive the data plane through injectable handles (probe,
// promote, LSN functions; a shard.Router; a wal.Writer), so tests run
// them against in-process fleets with deterministic clocks, and the
// daemons wire them to real pagesvc clients.
package fleet

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"revelation/internal/disk"
	"revelation/internal/metrics"
)

// Member is one shard as the controller sees it, through handles the
// caller wires to the data plane.
type Member struct {
	// Name is the shard's identity (shard.Member.Name).
	Name string
	// Probe checks the primary's liveness — typically
	// pagesvc.Client.Ping, one attempt, short timeout. nil members are
	// never probed (and never promoted).
	Probe func() error
	// ReplicaLSN reports the replica's applied LSN, 0 when there is no
	// replica (which also disqualifies promotion).
	ReplicaLSN func() uint64
	// Epoch reports the shard's current fencing epoch
	// (shard.Router.Epoch).
	Epoch func() uint64
	// Promote performs the full promotion at the given epoch: tell the
	// replica's server to go writable (pagesvc.Client.Promote) and flip
	// the router (shard.Router.PromoteReplica). An error leaves the
	// member down and the controller retrying next tick.
	Promote func(epoch uint64) error
}

// confirmProbes is how many extra jittered probes must ALL fail, after
// the sustained-loss window, before promotion fires. One probe
// succeeding resets the loss window: promotion is deliberately
// pessimistic, a needless promotion costs a replica.
const confirmProbes = 2

// Config tunes a Controller.
type Config struct {
	// Members are the shards under watch.
	Members []Member
	// SustainedLoss is how long a member's probe must fail continuously
	// before promotion is considered; zero means 500ms. Blips shorter
	// than this never promote.
	SustainedLoss time.Duration
	// ProbeJitter bounds the random pause between confirmation probes
	// (full jitter, drawn from a fixed seed); zero means none.
	ProbeJitter time.Duration
	// LSNFloor, when set, is the promotion catch-up floor: a replica
	// whose applied LSN is behind it is not promoted yet (promoting it
	// would serve stale pages as the new write master). Wire it to the
	// data WAL's DurableLSN.
	LSNFloor func() uint64
	// Clock supplies the time; nil means time.Now. Tests inject a fake
	// to walk the sustained-loss window deterministically.
	Clock func() time.Time
	// Registry, when set, receives asm_fleet_promotions_total.
	Registry *metrics.Registry
}

// memberState is the controller's per-member health bookkeeping.
type memberState struct {
	downSince time.Time
	down      bool
	promoted  bool
	epoch     uint64
	lastErr   string
}

// Promotion records one promotion the controller performed.
type Promotion struct {
	Member string
	Epoch  uint64
}

// Controller watches the fleet and promotes replicas. Drive it either
// by calling Tick at will (tests) or Run in a goroutine (daemons).
type Controller struct {
	cfg    Config
	jitter *disk.Jitter

	mu     sync.Mutex
	states []memberState
	done   chan struct{}
	closed bool

	promotions metrics.Counter
}

// NewController builds a controller; it does nothing until Tick or Run.
func NewController(cfg Config) *Controller {
	if cfg.SustainedLoss <= 0 {
		cfg.SustainedLoss = 500 * time.Millisecond
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	c := &Controller{
		cfg:    cfg,
		jitter: disk.NewJitter(0x1eef),
		states: make([]memberState, len(cfg.Members)),
		done:   make(chan struct{}),
	}
	if reg := cfg.Registry; reg != nil {
		reg.Attach("asm_fleet_promotions_total", "Replica promotions performed by the fleet controller.", &c.promotions)
	}
	return c
}

// Promotions returns how many promotions the controller has performed.
func (c *Controller) Promotions() int64 { return c.promotions.Value() }

// Tick probes every member once and promotes any that has been down
// past the sustained-loss window, survived the confirmation probes,
// and has a caught-up replica. It returns the promotions performed
// this tick. Tick is safe to call concurrently with itself only in the
// trivial sense (it serializes internally); the intended use is one
// caller.
func (c *Controller) Tick(now time.Time) []Promotion {
	var fired []Promotion
	for i := range c.cfg.Members {
		if p, ok := c.tickMember(i, now); ok {
			fired = append(fired, p)
		}
	}
	return fired
}

func (c *Controller) tickMember(i int, now time.Time) (Promotion, bool) {
	m := &c.cfg.Members[i]
	if m.Probe == nil {
		return Promotion{}, false
	}
	c.mu.Lock()
	st := &c.states[i]
	if st.promoted {
		c.mu.Unlock()
		return Promotion{}, false
	}
	c.mu.Unlock()

	err := m.Probe()
	c.mu.Lock()
	if err == nil {
		st.down = false
		st.lastErr = ""
		c.mu.Unlock()
		return Promotion{}, false
	}
	st.lastErr = err.Error()
	if !st.down {
		st.down = true
		st.downSince = now
		c.mu.Unlock()
		return Promotion{}, false
	}
	if now.Sub(st.downSince) < c.cfg.SustainedLoss {
		c.mu.Unlock()
		return Promotion{}, false
	}
	c.mu.Unlock()

	// Sustained loss established. Confirmation probes, jitter-spaced:
	// ONE success is a stay of execution — the window resets.
	for n := 0; n < confirmProbes; n++ {
		if jit := c.cfg.ProbeJitter; jit > 0 {
			d := c.jitter.Backoff(disk.RetryPolicy{BaseBackoff: jit, MaxBackoff: jit}, 1)
			select {
			case <-c.done:
				return Promotion{}, false
			case <-time.After(d):
			}
		}
		if m.Probe() == nil {
			c.mu.Lock()
			st.down = false
			c.mu.Unlock()
			return Promotion{}, false
		}
	}

	// The replica must exist and be caught up to the floor: promoting
	// a laggard would resurrect old page images as the write master.
	if m.ReplicaLSN == nil {
		return Promotion{}, false
	}
	applied := m.ReplicaLSN()
	if c.cfg.LSNFloor != nil {
		if floor := c.cfg.LSNFloor(); applied < floor {
			c.mu.Lock()
			st.lastErr = fmt.Sprintf("replica at LSN %d behind floor %d", applied, floor)
			c.mu.Unlock()
			return Promotion{}, false
		}
	}

	epoch := uint64(1)
	if m.Epoch != nil {
		epoch = m.Epoch() + 1
	}
	if m.Promote == nil {
		return Promotion{}, false
	}
	if perr := m.Promote(epoch); perr != nil {
		c.mu.Lock()
		st.lastErr = perr.Error()
		c.mu.Unlock()
		return Promotion{}, false
	}
	c.mu.Lock()
	st.promoted = true
	st.epoch = epoch
	st.down = false
	c.mu.Unlock()
	c.promotions.Inc()
	return Promotion{Member: m.Name, Epoch: epoch}, true
}

// Run ticks the controller at the given interval until Stop. It is the
// daemon entry point; tests prefer Tick.
func (c *Controller) Run(interval time.Duration) {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
			c.Tick(c.cfg.Clock())
		}
	}
}

// Stop halts Run and any in-flight confirmation pause.
func (c *Controller) Stop() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.done)
	}
	c.mu.Unlock()
}

// MemberStatus is one member's controller-eye view, for /fleetz.
type MemberStatus struct {
	Name     string
	Down     bool
	Promoted bool
	Epoch    uint64
	LastErr  string
}

// Status returns every member's state, in member order.
func (c *Controller) Status() []MemberStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]MemberStatus, len(c.cfg.Members))
	for i := range c.cfg.Members {
		st := c.states[i]
		out[i] = MemberStatus{
			Name:     c.cfg.Members[i].Name,
			Down:     st.down,
			Promoted: st.promoted,
			Epoch:    st.epoch,
			LastErr:  st.lastErr,
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// WriteStatus renders the controller's view as text (the /fleetz
// body).
func (c *Controller) WriteStatus(w io.Writer) {
	fmt.Fprintf(w, "fleet: %d members, %d promotions\n", len(c.cfg.Members), c.Promotions())
	for _, st := range c.Status() {
		health := "up"
		if st.Down {
			health = "down"
		}
		if st.Promoted {
			health = fmt.Sprintf("promoted (epoch %d)", st.Epoch)
		}
		fmt.Fprintf(w, "  %-20s %s", st.Name, health)
		if st.LastErr != "" {
			fmt.Fprintf(w, "  last error: %s", st.LastErr)
		}
		fmt.Fprintln(w)
	}
}
