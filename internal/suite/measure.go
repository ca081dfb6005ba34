package suite

import (
	"revelation/internal/assembly"
	"revelation/internal/buffer"
	"revelation/internal/disk"
	"revelation/internal/trace"
)

// Measurement brackets one instrumented run over a device and a buffer
// pool: cold-start the pool, snapshot the counters, park the head, and
// (when a tracer is given) instrument the stack and emit the bench
// begin marker. End computes the per-run deltas, emits the matching end
// marker carrying the harness-reported counters — the contract
// trace.Run.Verify checks a replay against — and detaches the tracer.
//
// run is its one caller outside tests, so suite iterations and figure
// points are bracketed identically. Counters are never reset, so a
// concurrent metrics scraper always sees them stay monotone while every
// run still reports exact deltas.
type Measurement struct {
	Name  string
	dev   disk.Device
	pool  *buffer.Pool
	tr    *trace.Tracer
	dev0  disk.Stats
	pool0 buffer.Stats
}

// Measured is the delta view of one bracketed run.
type Measured struct {
	Dev  disk.Stats
	Pool buffer.Stats
}

// StartMeasurement begins a bracketed run. The pool is fully evicted
// first (the previous run's dirty write-backs land before the
// snapshot), then the device and pool counters are snapshotted, the
// head is parked at page 0, and — when tr is non-nil — the device and
// pool are instrumented and the begin marker is emitted. This is the one
// place a tracer reaches the stack: the device forwards it to every
// layer under it (members, clients, arms, their wire), and an operator
// opened on the pool takes it from the pool.
func StartMeasurement(name string, window int, dev disk.Device, pool *buffer.Pool, tr *trace.Tracer) (*Measurement, error) {
	if err := pool.EvictAll(); err != nil {
		return nil, err
	}
	m := &Measurement{
		Name:  name,
		dev:   dev,
		pool:  pool,
		tr:    tr,
		dev0:  dev.Stats(),
		pool0: pool.Stats(),
	}
	dev.ResetHead()
	if tr != nil {
		disk.AttachTracer(dev, tr)
		pool.SetTracer(tr)
		tr.BeginRun(name, window)
	}
	return m, nil
}

// Abort detaches the tracer without emitting an end marker, for runs
// that fail mid-flight: the replay then sees a run with no reported
// counters and verifies vacuously instead of against garbage.
func (m *Measurement) Abort() {
	if m.tr != nil {
		disk.AttachTracer(m.dev, nil)
		m.pool.SetTracer(nil)
	}
}

// End closes the bracket: it computes the run's device and pool deltas,
// emits the end marker with the reported counters derived from those
// deltas and the operator's stats, and detaches the tracer.
func (m *Measurement) End(st assembly.Stats) Measured {
	dev := m.dev.Stats().Sub(m.dev0)
	pool := m.pool.Stats().Sub(m.pool0)
	if m.tr != nil {
		m.tr.EndRun(m.Name, trace.RunStats{
			Reads:     dev.Reads,
			SeekReads: dev.SeekReads,
			SeekTotal: dev.SeekTotal,
			Assembled: st.Assembled,
			Aborted:   st.Aborted,
			Skipped:   st.Skipped,
			Retries:   st.FaultRetries,
			Stalls:    st.WindowStalls,
		})
	}
	m.Abort()
	return Measured{Dev: dev, Pool: pool}
}
