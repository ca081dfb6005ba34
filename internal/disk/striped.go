package disk

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"revelation/internal/metrics"
	"revelation/internal/trace"
)

// Striped is a Device composed of several sub-devices with round-robin
// page striping — the "database stored on more than one physical
// device" situation of the paper's Section 7. Each sub-device keeps
// its own head and seek accounting; Stats aggregates them, so the
// average-seek metric reflects the combined movement of all arms.
//
// Global page g maps to device (g / StripeUnit) mod N, local page
// (g / (StripeUnit*N)) * StripeUnit + g mod StripeUnit.
type Striped struct {
	devs []Device
	unit int

	mu   sync.Mutex
	size int
	// last is the last global page touched, for Head: set under mu,
	// loaded without it.
	last   atomic.Uint32
	closed bool
}

// NewStriped builds a striped device over devs with the given stripe
// unit in pages (minimum 1). All sub-devices must share a page size
// and start empty; Allocate grows them in lockstep.
func NewStriped(devs []Device, unit int) (*Striped, error) {
	if len(devs) == 0 {
		return nil, fmt.Errorf("disk: striped device needs at least one sub-device")
	}
	if unit < 1 {
		unit = 1
	}
	ps := devs[0].PageSize()
	for _, d := range devs[1:] {
		if d.PageSize() != ps {
			return nil, fmt.Errorf("disk: striped sub-devices disagree on page size")
		}
	}
	return &Striped{devs: devs, unit: unit}, nil
}

// Devices exposes the sub-devices (for per-device statistics).
func (s *Striped) Devices() []Device { return s.devs }

// SetTracer implements TracerSetter by forwarding the tracer to every
// arm: traced pages and heads are arm-local, which is the physically
// meaningful view (each arm moves independently).
func (s *Striped) SetTracer(t *trace.Tracer) {
	for _, d := range s.devs {
		AttachTracer(d, t)
	}
}

// RegisterMetrics implements MetricsRegistrar by registering every arm
// under "<dev><index>": each arm's head and seeks are the physically
// meaningful ones, and a scraper can aggregate families across the dev
// label when it wants the combined view.
func (s *Striped) RegisterMetrics(r *metrics.Registry, dev string) {
	for i, d := range s.devs {
		RegisterMetrics(d, r, fmt.Sprintf("%s%d", dev, i))
	}
}

// Shards implements Arms: one arm per sub-device.
func (s *Striped) Shards() int { return len(s.devs) }

// ShardOf implements Arms: the sub-device a global page lives on.
func (s *Striped) ShardOf(p PageID) int { return int(p) / s.unit % len(s.devs) }

func (s *Striped) route(p PageID) (int, PageID) {
	g := int(p)
	return s.ShardOf(p), PageID(g/(s.unit*len(s.devs))*s.unit + g%s.unit)
}

// ReadPage implements Device: the ctx path with no query to charge.
func (s *Striped) ReadPage(p PageID, buf []byte) error {
	return s.ReadPageCtx(nil, p, buf)
}

// ReadPageCtx implements CtxReader by routing the ctx-aware read to
// the owning arm.
func (s *Striped) ReadPageCtx(ctx context.Context, p PageID, buf []byte) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if int(p) >= s.size {
		s.mu.Unlock()
		return fmt.Errorf("%w: read page %d of %d", ErrOutOfRange, p, s.size)
	}
	s.last.Store(uint32(p))
	s.mu.Unlock()
	dev, local := s.route(p)
	return ReadPageCtx(ctx, s.devs[dev], local, buf)
}

// WritePage implements Device.
func (s *Striped) WritePage(p PageID, buf []byte) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if int(p) >= s.size {
		s.mu.Unlock()
		return fmt.Errorf("%w: write page %d of %d", ErrOutOfRange, p, s.size)
	}
	s.last.Store(uint32(p))
	s.mu.Unlock()
	dev, local := s.route(p)
	return s.devs[dev].WritePage(local, buf)
}

// Allocate implements Device: it grows the global address space, and
// each sub-device by whatever its share of the new stripes is. A request
// outside CheckAllocate's bounds reaches no sub-device.
func (s *Striped) Allocate(n int) (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return InvalidPage, ErrClosed
	}
	if err := CheckAllocate(n, s.size); err != nil {
		return InvalidPage, err
	}
	first := PageID(s.size)
	newSize := s.size + n
	// Each sub-device must cover the highest local page mapped to it.
	for i, d := range s.devs {
		need := s.localPagesFor(newSize, i)
		if grow := need - d.NumPages(); grow > 0 {
			if _, err := d.Allocate(grow); err != nil {
				return InvalidPage, err
			}
		}
	}
	s.size = newSize
	return first, nil
}

// localPagesFor computes how many local pages device i needs to back a
// global size.
func (s *Striped) localPagesFor(globalSize, dev int) int {
	if globalSize == 0 {
		return 0
	}
	// Count global pages < globalSize routed to dev.
	fullRounds := globalSize / (s.unit * len(s.devs))
	rem := globalSize % (s.unit * len(s.devs))
	n := fullRounds * s.unit
	// The remainder fills devices 0..k in stripe-unit chunks.
	remDev := rem / s.unit
	switch {
	case dev < remDev:
		n += s.unit
	case dev == remDev:
		n += rem % s.unit
	}
	return n
}

// NumPages implements Device.
func (s *Striped) NumPages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// PageSize implements Device.
func (s *Striped) PageSize() int { return s.devs[0].PageSize() }

// Head implements Device: the last global page touched. Sub-device
// heads are the physically meaningful ones; a scheduler with a lane per
// arm asks HeadOf. It is a load and takes no lock.
func (s *Striped) Head() PageID { return PageID(s.last.Load()) }

// HeadOf implements Arms: where sub-device i's arm stands, as the global page its
// local head maps back to; false when there is no sub-device i.
func (s *Striped) HeadOf(i int) (PageID, bool) {
	if i < 0 || i >= len(s.devs) {
		return InvalidPage, false
	}
	local := int(s.devs[i].Head())
	return PageID(local/s.unit*s.unit*len(s.devs) + i*s.unit + local%s.unit), true
}

// Stats implements Device: the aggregate over all arms.
func (s *Striped) Stats() Stats {
	var total Stats
	for _, d := range s.devs {
		total = total.Add(d.Stats())
	}
	return total
}

// ResetStats implements Device.
func (s *Striped) ResetStats() {
	for _, d := range s.devs {
		d.ResetStats()
	}
}

// ResetHead implements Device.
func (s *Striped) ResetHead() {
	s.mu.Lock()
	s.last.Store(0)
	s.mu.Unlock()
	for _, d := range s.devs {
		d.ResetHead()
	}
}

// Close implements Device.
func (s *Striped) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	var first error
	for _, d := range s.devs {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

var _ Arms = (*Striped)(nil)
