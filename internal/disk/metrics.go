package disk

import "revelation/internal/metrics"

// MetricsRegistrar is implemented by devices that can export their
// counters into a metrics registry. Wrapper devices forward the call to
// the devices they wrap (with the same label), so registering the top
// of a device stack instruments the whole stack.
type MetricsRegistrar interface {
	RegisterMetrics(r *metrics.Registry, dev string)
}

// RegisterMetrics attaches dev's counters to r under the given device
// label when the device supports it, reporting whether it did.
// Registration is idempotent: attaching again replaces the series.
func RegisterMetrics(d Device, r *metrics.Registry, dev string) bool {
	if m, ok := d.(MetricsRegistrar); ok {
		m.RegisterMetrics(r, dev)
		return true
	}
	return false
}
