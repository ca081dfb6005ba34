// Admission control and bounded pin waits: the query-lifecycle face of
// the buffer pool.
//
// N concurrent queries over one pool used to fight for frames with no
// arbitration: overload surfaced as ErrNoFrames storms (each query
// shedding and retrying) or, with every query pinning its window,
// as livelock. Two mechanisms replace that:
//
//   - Reservations. A query reserves a minimum frame quota before it
//     starts (assembly.Options.ReserveFrames does this at Open). The
//     pool admits reservations only while the quotas sum to at most the
//     frame count, so every admitted query's worst-case working set
//     fits in aggregate; the excess query gets ErrAdmission immediately
//     — a clean shed signal the serve layer turns into HTTP 503 —
//     instead of joining a livelock. Reservations are bookkeeping, not
//     partitions: frames are still allocated by demand, which keeps the
//     single-query hot path untouched.
//
//   - Bounded pin waits. A fix never waits: frame exhaustion is an
//     instant ErrNoFrames. The caller sheds its own pins — a query may
//     be holding the very frames it would wait for — and then calls
//     WaitFrame, which parks until the next freed frame, bounded by
//     the query's context, before the fix is retried (the assembly
//     operator does exactly that). Transient contention between
//     admitted queries resolves by waiting rather than by error-path
//     spinning.
package buffer

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// ErrAdmission rejects a reservation that would oversubscribe the
// pool. It is the load-shed signal: the caller should fail the query
// (or return 503) rather than run it degraded.
var ErrAdmission = errors.New("buffer: admission rejected, frame reservations exhausted")

// Reservation is a query's admitted frame quota. Release returns the
// quota to the pool; it is idempotent and must run on every query exit
// path, error or not (the assembly operator releases in Close).
type Reservation struct {
	pool   *Pool
	frames int
}

// Reserve admits a query that needs at least frames buffer frames,
// failing with ErrAdmission when the pool's outstanding quotas cannot
// accommodate it. Values < 1 reserve 1.
func (p *Pool) Reserve(frames int) (*Reservation, error) {
	if frames < 1 {
		frames = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrPoolClosed
	}
	if p.reserved+frames > len(p.frames) {
		p.admissionRejects.Inc()
		return nil, fmt.Errorf("%w: %d reserved + %d requested > %d frames",
			ErrAdmission, p.reserved, frames, len(p.frames))
	}
	p.reserved += frames
	p.reservations.Add(1)
	p.reservedFrames.Set(int64(p.reserved))
	return &Reservation{pool: p, frames: frames}, nil
}

// Release returns the reservation's quota to the pool and wakes one
// frame waiter (capacity may have opened for a parked admission
// retry). Safe to call more than once and on a nil reservation.
func (r *Reservation) Release() {
	if r == nil {
		return
	}
	p := r.pool
	p.mu.Lock()
	if r.frames > 0 {
		p.reserved -= r.frames
		r.frames = 0
		p.reservations.Add(-1)
		p.reservedFrames.Set(int64(p.reserved))
	}
	p.mu.Unlock()
	p.notifyFree()
}

// ReservedFrames reports the total frame quota currently reserved.
func (p *Pool) ReservedFrames() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reserved
}

// notifyFree wakes one WaitFrame waiter. The channel holds one token:
// a wakeup already pending absorbs further notifications, and a woken
// waiter retries its fix under the lock, so a lost-wakeup race only
// costs one pinWait interval, never a deadline.
func (p *Pool) notifyFree() {
	select {
	case p.freeCh <- struct{}{}:
	default:
	}
}

// pinWait bounds one WaitFrame. The free-frame notification ends the
// wait whenever a pin actually drains, so the bound only paces the
// caller's retry under sustained exhaustion.
const pinWait = 5 * time.Millisecond

// WaitFrame blocks until a frame may have freed, pinWait elapses, or
// ctx (which must not be nil) ends, returning the context's error in
// the last case. The assembly operator calls it after a fix failed with
// ErrNoFrames and it has shed its own pins: waiting on the other
// queries' unfixes replaces spin-requeueing the faulted reference.
// Every call is one pin wait (asm_buffer_pin_waits_total), and one that
// the context ended is a timeout as well.
func (p *Pool) WaitFrame(ctx context.Context) error {
	p.pinWaits.Inc()
	timer := time.NewTimer(pinWait)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		p.pinWaitTimeouts.Inc()
		return ctx.Err()
	case <-p.freeCh:
	case <-timer.C:
	}
	return nil
}
