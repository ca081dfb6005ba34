package metrics

import "testing"

// BenchmarkMetricsOverhead prices one instrumentation point: a cell
// update is a single atomic RMW whether or not the cell is attached to
// a registry, which is the package's whole overhead story (numbers in
// EXPERIMENTS.md). The attached variants must not be measurably slower
// than the detached ones.
func BenchmarkMetricsOverhead(b *testing.B) {
	b.Run("counter-detached", func(b *testing.B) {
		var c Counter
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("counter-registered", func(b *testing.B) {
		c := NewRegistry().Counter("bench_total", "bench", "dev", "0")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("gauge-set", func(b *testing.B) {
		var g Gauge
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Set(int64(i))
		}
	})
	b.Run("gauge-setmax", func(b *testing.B) {
		var g Gauge
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.SetMax(int64(i))
		}
	})
}
