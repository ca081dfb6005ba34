package disk

import (
	"errors"
	"sync/atomic"
	"time"
)

// Fault taxonomy. The paper's evaluation assumes a perfectly reliable
// device; a production system does not get one. Every I/O error the
// stack surfaces is classified into exactly two kinds:
//
//   - Transient: the access failed this time but a retry may succeed
//     (a queue timeout, a recoverable media hiccup). Wrapped around
//     ErrTransient so errors.Is classifies it anywhere up the stack.
//   - Permanent: the page is gone and retrying is pointless (an
//     unrecoverable media error). Wrapped around ErrPermanent.
//
// Errors that wrap neither sentinel (ErrOutOfRange, ErrClosed,
// ErrBadLength, decode failures above the device) are treated as
// permanent by every retry loop: only explicitly transient errors are
// worth repeating.
var (
	// ErrTransient marks an I/O error that may succeed on retry.
	ErrTransient = errors.New("disk: transient I/O error")
	// ErrPermanent marks an unrecoverable page error.
	ErrPermanent = errors.New("disk: permanent page error")
	// ErrCrashed marks a device killed by a crash point (see
	// CrashPoint): every access after the crash fails with it until
	// Revive. It deliberately wraps neither retry sentinel — retrying
	// into a dead machine is pointless; the caller must stop and let
	// recovery run.
	ErrCrashed = errors.New("disk: device crashed")
)

// Retryable reports whether err is worth retrying: only errors that
// declare themselves transient are.
func Retryable(err error) bool { return errors.Is(err, ErrTransient) }

// RetryPolicy bounds a retry-with-exponential-backoff loop: the shard
// router's per-access attempts (shard.Config.Retry), the one retry
// layer over the wire, and a replica's reconnect pacing.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts including the first;
	// values below 2 mean "no retries".
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further
	// retry doubles it.
	BaseBackoff time.Duration
	// MaxBackoff caps the doubling; zero means uncapped.
	MaxBackoff time.Duration
}

// DefaultRetryPolicy is a sensible production default: four attempts
// with 100µs–10ms exponential backoff.
var DefaultRetryPolicy = RetryPolicy{
	MaxAttempts: 4,
	BaseBackoff: 100 * time.Microsecond,
	MaxBackoff:  10 * time.Millisecond,
}

// Backoff returns the delay before the given retry (0 = first retry),
// doubling from BaseBackoff and saturating at MaxBackoff.
func (rp RetryPolicy) Backoff(retry int) time.Duration {
	d := rp.BaseBackoff
	for i := 0; i < retry; i++ {
		d *= 2
		if rp.MaxBackoff > 0 && d >= rp.MaxBackoff {
			return rp.MaxBackoff
		}
	}
	if rp.MaxBackoff > 0 && d > rp.MaxBackoff {
		d = rp.MaxBackoff
	}
	return d
}

// Jitter draws full-jitter backoff delays from a seeded splitmix64
// stream: uniformly distributed in (0, ceiling], so simultaneous
// retry/reconnect loops across a fleet desynchronize instead of
// hammering their servers in lockstep. A nil *Jitter is valid and
// falls back to the deterministic RetryPolicy.Backoff — callers never
// need a guard. Safe for concurrent use.
type Jitter struct {
	state atomic.Uint64
}

// NewJitter builds a jitter source from seed. Two sources with the
// same seed produce the same delay sequence, so jittered pacing stays
// reproducible in tests.
func NewJitter(seed int64) *Jitter {
	j := &Jitter{}
	j.state.Store(uint64(seed)*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15)
	return j
}

// next is one splitmix64 step.
func (j *Jitter) next() uint64 {
	z := j.state.Add(0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Backoff returns the delay before the given retry: uniform in
// (0, rp.Backoff(retry)] for a non-nil source, exactly rp.Backoff(retry)
// for nil.
func (j *Jitter) Backoff(rp RetryPolicy, retry int) time.Duration {
	d := rp.Backoff(retry)
	if j == nil || d <= 0 {
		return d
	}
	return 1 + time.Duration(j.next()%uint64(d))
}
