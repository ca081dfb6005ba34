// Package metrics is the live-observability substrate of the
// reproduction: a dependency-free registry of atomic counters and
// gauges with labeled families, Prometheus text-format exposition, and
// snapshot/delta arithmetic.
//
// Where package trace answers "why did this run cost what it did" after
// the fact (an event stream replayed offline), this package answers
// "what is the system doing right now": every layer keeps its counters
// in registry-attachable cells that a scrape reads while the run is in
// flight. The two accountings — plus the harness's own Stats() structs
// — are reconciled by the three-way agreement tests; see DESIGN.md §9.
//
// Design rules:
//
//   - The package imports only the standard library, so every layer can
//     depend on it without cycles.
//   - The hot path is allocation-free: updating a cell is one atomic
//     RMW, whether or not the cell is attached to a registry. Attaching
//     never wraps or copies a cell, so "metrics enabled" costs exactly
//     what "metrics disabled" costs at the instrumentation point.
package metrics

import "sync/atomic"

// Counter is a monotonically increasing cell. The zero value is ready
// to use; all methods are safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is a caller bug; it is not checked on the hot
// path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Reset zeroes the counter. It exists for the cold-start semantics of
// Device.ResetStats and for tests; a scraped counter should normally
// never reset.
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is a cell that can go up and down. The zero value is ready to
// use; all methods are safe for concurrent use.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// SetMax raises the gauge to n if n is larger — the high-water-mark
// update (peak pins, peak window pages).
func (g *Gauge) SetMax(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Reset zeroes the gauge.
func (g *Gauge) Reset() { g.v.Store(0) }

// GaugeFunc is a gauge whose value is computed at scrape time — queue
// depths, head positions, pool occupancy. The function must be safe to
// call concurrently with the system it observes.
type GaugeFunc func() int64
