package disk

import (
	"context"
	"fmt"
	"sync"
	"time"

	"revelation/internal/metrics"
	"revelation/internal/qtrace"
	"revelation/internal/trace"
)

// FaultConfig parameterizes deterministic fault injection. All
// decisions are pure functions of (Seed, page id), so a run over a
// Faulty device is reproducible regardless of request order, and a
// test can predict exactly which pages are poisoned.
type FaultConfig struct {
	// Seed drives every injection decision. Two Faulty devices with
	// the same seed and rates fault the same pages.
	Seed int64
	// TransientRate is the fraction of pages whose reads initially
	// fail with ErrTransient and then succeed (0..1).
	TransientRate float64
	// TransientFailures is how many consecutive failures a transient
	// page serves before recovering; values < 1 mean 1.
	TransientFailures int
	// PermanentRate is the fraction of pages that always fail with
	// ErrPermanent (0..1). Permanent wins over transient on overlap.
	PermanentRate float64
	// StallRate is the fraction of pages whose accesses stall for
	// Stall — the slow-read/straggler model (a wedged server, a deep
	// queue). Like the error rates, the decision is a pure function of
	// (Seed, page id): a stalled page always stalls, so a timeout path
	// can be pointed at a page that is known to be slow.
	// Stalled accesses still succeed.
	StallRate float64
	// Stall is the injected stall duration.
	Stall time.Duration
	// Writes extends injection to WritePage; by default only reads
	// fault, which matches the assembly workload (read-dominated).
	Writes bool

	// Brownout models a sustained outage episode — a wedged server, a
	// failing disk limping before it dies — driven by the device's
	// access clock rather than wall time, so breaker open/half-open
	// transitions are exercisable deterministically. The episode spans
	// accesses [BrownoutStart, BrownoutStart+BrownoutLen): intensity
	// ramps up linearly over the first BrownoutRamp accesses, holds at
	// full for the middle, and ramps back down over the last
	// BrownoutRamp. Every access during the episode stalls for
	// intensity × BrownoutStall; accesses at full intensity also fail
	// with ErrTransient (the plateau is an outage, the ramps are a
	// slowdown). BrownoutLen <= 0 disables the profile.
	BrownoutStart int64
	BrownoutLen   int64
	BrownoutRamp  int64
	BrownoutStall time.Duration
}

// FaultStats counts what the injector actually did.
type FaultStats struct {
	Transient int64 // transient errors injected
	Permanent int64 // permanent errors injected
	Stalls    int64 // stalls injected
	Brownouts int64 // accesses refused at full brownout intensity
}

// Faulty wraps any Device with deterministic, seeded fault injection.
// It implements the full Device interface, so it can sit between a
// buffer pool and a Sim, a Striped device, or another Faulty.
//
// A fresh Faulty starts disarmed (zero config): populate the database
// first, then arm the injector with SetConfig.
type Faulty struct {
	dev Device

	mu sync.Mutex
	// cfg is the armed configuration; the zero value injects nothing.
	cfg FaultConfig
	// remaining tracks how many transient failures each faulty page
	// still owes before it recovers.
	remaining map[PageID]int
	// accesses is the brownout clock: injection decisions seen so far
	// (reads always; writes only when cfg.Writes).
	accesses int64
	// crash, when set, kills the device at a chosen write ordinal. The
	// same CrashPoint may be shared by several Faulty devices so the
	// write clock counts globally.
	crash *CrashPoint
	tr    *trace.Tracer

	// Injection counters are metric cells so a live registry observes
	// exactly what FaultStats() reports.
	transient metrics.Counter
	permanent metrics.Counter
	stalls    metrics.Counter
	brownouts metrics.Counter
}

// NewFaulty wraps dev with the given fault configuration.
func NewFaulty(dev Device, cfg FaultConfig) *Faulty {
	return &Faulty{dev: dev, cfg: cfg, remaining: map[PageID]int{}}
}

// SetTracer implements TracerSetter: injected faults emit disk fault
// events, and the tracer is forwarded to the wrapped device so real
// accesses trace too.
func (f *Faulty) SetTracer(t *trace.Tracer) {
	f.mu.Lock()
	f.tr = t
	f.mu.Unlock()
	AttachTracer(f.dev, t)
}

// SetConfig re-arms the injector, resetting transient failure budgets
// and counters. Arming with the zero FaultConfig disarms it.
func (f *Faulty) SetConfig(cfg FaultConfig) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cfg = cfg
	f.remaining = map[PageID]int{}
	f.accesses = 0
	f.transient.Reset()
	f.permanent.Reset()
	f.stalls.Reset()
	f.brownouts.Reset()
}

// SetCrash attaches a crash point. Pass the same *CrashPoint to every
// Faulty in the system so the write clock orders writes globally; pass
// nil to detach.
func (f *Faulty) SetCrash(c *CrashPoint) {
	f.mu.Lock()
	f.crash = c
	f.mu.Unlock()
}

// CrashAfter arms a fresh crash point on this device alone: the device
// dies after its n-th write, tearing that write at a seeded sector
// boundary when torn is set. It returns the point so the caller can
// inspect, revive, or share it with other devices via SetCrash.
func (f *Faulty) CrashAfter(n int64, torn bool, seed int64) *CrashPoint {
	c := NewCrashPoint(n, torn, seed)
	f.SetCrash(c)
	return c
}

func (f *Faulty) crashPoint() *CrashPoint {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crash
}

// FaultStats returns a snapshot of the injection counters.
func (f *Faulty) FaultStats() FaultStats {
	return FaultStats{
		Transient: f.transient.Value(),
		Permanent: f.permanent.Value(),
		Stalls:    f.stalls.Value(),
		Brownouts: f.brownouts.Value(),
	}
}

// RegisterMetrics implements MetricsRegistrar: it exports the injection
// counters under the device label and forwards to the wrapped device so
// the whole stack is instrumented.
func (f *Faulty) RegisterMetrics(r *metrics.Registry, dev string) {
	r.Attach("asm_disk_faults_total", "Injected I/O faults by class.",
		&f.transient, "dev", dev, "class", "transient")
	r.Attach("asm_disk_faults_total", "Injected I/O faults by class.",
		&f.permanent, "dev", dev, "class", "permanent")
	r.Attach("asm_disk_stalls_total", "Injected slow-access stalls.",
		&f.stalls, "dev", dev)
	r.Attach("asm_disk_brownouts_total", "Accesses refused at full brownout intensity.",
		&f.brownouts, "dev", dev)
	RegisterMetrics(f.dev, r, dev)
}

// Injection salts keep the decisions independent.
const (
	saltPermanent = 0x9E3779B97F4A7C15
	saltTransient = 0xC2B2AE3D27D4EB4F
	saltTear      = 0x27D4EB2F165667C5
	saltStall     = 0x94D049BB133111EB
)

// mix is splitmix64: a cheap, well-distributed hash of the decision
// inputs. The low 53 bits become a uniform float in [0, 1).
func mix(seed int64, page PageID, salt uint64) float64 {
	z := uint64(seed) ^ uint64(page)*0x9E3779B97F4A7C15 ^ salt
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// PermanentlyFaulty reports whether the injector permanently fails
// page p under the current configuration. Tests use it to compute the
// poisoned set without replaying I/O.
func (f *Faulty) PermanentlyFaulty(p PageID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.permanentLocked(p)
}

func (f *Faulty) permanentLocked(p PageID) bool {
	return f.cfg.PermanentRate > 0 && mix(f.cfg.Seed, p, saltPermanent) < f.cfg.PermanentRate
}

func (f *Faulty) transientLocked(p PageID) bool {
	return f.cfg.TransientRate > 0 && mix(f.cfg.Seed, p, saltTransient) < f.cfg.TransientRate
}

// Stalled reports whether accesses to page p stall under the current
// configuration. Stall tests use it to find a page that is known to be
// slow without timing anything.
func (f *Faulty) Stalled(p PageID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stalledLocked(p)
}

func (f *Faulty) stalledLocked(p PageID) bool {
	return f.cfg.StallRate > 0 && mix(f.cfg.Seed, p, saltStall) < f.cfg.StallRate
}

// brownoutIntensity is the episode's intensity for the ord-th access:
// 0 outside the window, a linear ramp to 1 over the first (and last)
// BrownoutRamp accesses, and exactly 1 on the plateau between them.
func brownoutIntensity(cfg FaultConfig, ord int64) float64 {
	if cfg.BrownoutLen <= 0 {
		return 0
	}
	pos := ord - cfg.BrownoutStart
	if pos < 0 || pos >= cfg.BrownoutLen {
		return 0
	}
	ramp := cfg.BrownoutRamp
	if ramp < 0 {
		ramp = 0
	}
	if 2*ramp > cfg.BrownoutLen {
		ramp = cfg.BrownoutLen / 2
	}
	switch {
	case pos < ramp:
		return float64(pos+1) / float64(ramp+1)
	case pos >= cfg.BrownoutLen-ramp:
		return float64(cfg.BrownoutLen-pos) / float64(ramp+1)
	default:
		return 1
	}
}

// injectAs decides the fate of one access before it reaches the
// device. Injected faults are charged to sp (nil: to no query) and
// stamp their trace events with its query ID.
func (f *Faulty) injectAs(p PageID, write bool, sp *qtrace.Span) error {
	f.mu.Lock()
	if write && !f.cfg.Writes {
		f.mu.Unlock()
		return nil
	}
	var delay time.Duration
	if f.stalledLocked(p) {
		f.stalls.Inc()
		delay = f.cfg.Stall
	}
	// The brownout clock ticks on every injection decision; the ramps
	// slow accesses down, the plateau refuses them outright.
	intensity := brownoutIntensity(f.cfg, f.accesses)
	f.accesses++
	if intensity > 0 {
		delay += time.Duration(intensity * float64(f.cfg.BrownoutStall))
	}
	var err error
	var class string
	switch {
	case intensity >= 1:
		f.brownouts.Inc()
		class = "transient"
		err = fmt.Errorf("%w: page %d: brownout", ErrTransient, p)
	case f.permanentLocked(p):
		f.permanent.Inc()
		class = "permanent"
		err = fmt.Errorf("%w: page %d", ErrPermanent, p)
	case f.transientLocked(p):
		left, seen := f.remaining[p]
		if !seen {
			left = f.cfg.TransientFailures
			if left < 1 {
				left = 1
			}
		}
		if left > 0 {
			f.remaining[p] = left - 1
			f.transient.Inc()
			class = "transient"
			err = fmt.Errorf("%w: page %d", ErrTransient, p)
		}
	}
	tr := f.tr
	f.mu.Unlock()
	if class != "" {
		sp.OnFault()
		tr.DiskFault(int64(p), class, sp.QID())
	}
	// Sleep outside the lock so a stall on one page does not
	// stall concurrent accesses to others.
	if delay > 0 {
		time.Sleep(delay)
	}
	return err
}

// ReadPage implements Device: the ctx path with no query to charge.
func (f *Faulty) ReadPage(p PageID, buf []byte) error {
	return f.ReadPageCtx(nil, p, buf)
}

// ReadPageCtx implements CtxReader: injected faults and the wrapped
// device's read are both charged to the query span in ctx.
func (f *Faulty) ReadPageCtx(ctx context.Context, p PageID, buf []byte) error {
	if c := f.crashPoint(); c != nil && c.dead() {
		return fmt.Errorf("%w: read page %d", ErrCrashed, p)
	}
	if err := f.injectAs(p, false, qtrace.From(ctx)); err != nil {
		return err
	}
	return ReadPageCtx(ctx, f.dev, p, buf)
}

// WritePage implements Device.
func (f *Faulty) WritePage(p PageID, buf []byte) error {
	if c := f.crashPoint(); c != nil {
		switch v, tear := c.onWrite(f.dev.PageSize()); v {
		case crashDead:
			return fmt.Errorf("%w: write page %d", ErrCrashed, p)
		case crashTear:
			// The fatal write lands a prefix of whole sectors over the
			// page's previous contents — the canonical torn page — and
			// then the machine is gone.
			tmp := make([]byte, f.dev.PageSize())
			if err := f.dev.ReadPage(p, tmp); err == nil {
				copy(tmp[:tear], buf[:tear])
				f.dev.WritePage(p, tmp)
			}
			return fmt.Errorf("%w: write page %d torn after %d bytes", ErrCrashed, p, tear)
		}
	}
	if err := f.injectAs(p, true, nil); err != nil {
		return err
	}
	return f.dev.WritePage(p, buf)
}

// Allocate implements Device.
func (f *Faulty) Allocate(n int) (PageID, error) {
	if c := f.crashPoint(); c != nil && c.dead() {
		return InvalidPage, fmt.Errorf("%w: allocate %d pages", ErrCrashed, n)
	}
	return f.dev.Allocate(n)
}

// NumPages implements Device.
func (f *Faulty) NumPages() int { return f.dev.NumPages() }

// PageSize implements Device.
func (f *Faulty) PageSize() int { return f.dev.PageSize() }

// Head implements Device.
func (f *Faulty) Head() PageID { return f.dev.Head() }

// Stats implements Device.
func (f *Faulty) Stats() Stats { return f.dev.Stats() }

// ResetStats implements Device: it clears the device counters but not
// the fault counters (use SetConfig to re-arm those).
func (f *Faulty) ResetStats() { f.dev.ResetStats() }

// ResetHead implements Device.
func (f *Faulty) ResetHead() { f.dev.ResetHead() }

// Close implements Device.
func (f *Faulty) Close() error { return f.dev.Close() }
