package stats

import (
	"fmt"

	"revelation/internal/assembly"
	"revelation/internal/buffer"
	"revelation/internal/disk"
)

// FaultReport aggregates the fault and recovery counters of one
// assembly run across the whole I/O stack: what the device injected,
// what the buffer pool absorbed by retrying, and what
// the operator retried, quarantined, or stalled on.
type FaultReport struct {
	// Device is the injector's view: faults actually delivered.
	Device disk.FaultStats
	// PoolRetries counts device reads/writes the buffer pool repeated
	// under its retry policy.
	PoolRetries int64
	// Assembled and Skipped partition the complex objects the operator
	// finished with: emitted versus quarantined.
	Assembled int
	Skipped   int
	// FaultRetries counts reference fetches the operator re-queued
	// after a transient fault (the RetryFaults policy).
	FaultRetries int
	// WindowStalls counts buffer-pressure episodes in which the
	// effective window shrank.
	WindowStalls int
}

// CollectFaults builds a FaultReport from the layers of one run. Either
// of dev and pool may be nil when that layer was not in play.
func CollectFaults(dev *disk.Faulty, pool *buffer.Pool, st assembly.Stats) FaultReport {
	r := FaultReport{
		Assembled:    st.Assembled,
		Skipped:      st.Skipped,
		FaultRetries: st.FaultRetries,
		WindowStalls: st.WindowStalls,
	}
	if dev != nil {
		r.Device = dev.FaultStats()
	}
	if pool != nil {
		r.PoolRetries = pool.Stats().Retries
	}
	return r
}

// LossRate is the fraction of finished complex objects that were
// quarantined; 0 when nothing finished.
func (r FaultReport) LossRate() float64 {
	total := r.Assembled + r.Skipped
	if total == 0 {
		return 0
	}
	return float64(r.Skipped) / float64(total)
}

func (r FaultReport) String() string {
	return fmt.Sprintf(
		"faults: injected %d transient / %d permanent / %d latency; "+
			"retried %d (pool) + %d (operator); "+
			"assembled %d, quarantined %d (loss %.1f%%), window stalls %d",
		r.Device.Transient, r.Device.Permanent, r.Device.Latency,
		r.PoolRetries, r.FaultRetries,
		r.Assembled, r.Skipped, 100*r.LossRate(), r.WindowStalls)
}
