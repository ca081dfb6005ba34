package trace

import (
	"strings"
	"testing"
)

// Quantile is the quantile estimator behind /tracez and /statusz
// latency lines, so its contract gets spelled out in full: it returns
// the exclusive upper edge of the power-of-two bucket holding the
// q-quantile sample — an upper bound with factor-of-two resolution.

func TestQuantileEmpty(t *testing.T) {
	var h Hist
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty hist Quantile(%g) = %d, want 0", q, got)
		}
	}
}

func TestQuantileSingleSample(t *testing.T) {
	cases := []struct {
		v, want int64
	}{
		{0, 0}, // bucket 0 is exact
		{1, 2}, // [1,2) rounds up to its edge
		{2, 4}, // [2,4)
		{3, 4},
		{100, 128}, // [64,128)
	}
	for _, c := range cases {
		var h Hist
		h.Add(c.v)
		for _, q := range []float64{0.01, 0.5, 0.99, 1} {
			if got := h.Quantile(q); got != c.want {
				t.Errorf("hist{%d}.Quantile(%g) = %d, want %d", c.v, q, got, c.want)
			}
		}
	}
}

func TestQuantileUpperBoundInvariant(t *testing.T) {
	// Whatever the mix, Quantile(q) must bound at least ceil(q*n)
	// samples from above: count samples <= the returned edge.
	var h Hist
	samples := []int64{0, 1, 1, 3, 7, 9, 15, 100, 1000, 4096}
	for _, v := range samples {
		h.Add(v)
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.99, 1} {
		edge := h.Quantile(q)
		covered := 0
		for _, v := range samples {
			if v <= edge {
				covered++
			}
		}
		want := int(q * float64(len(samples)))
		if want < 1 {
			want = 1
		}
		if covered < want {
			t.Errorf("Quantile(%g) = %d covers %d of %d samples, want >= %d",
				q, edge, covered, len(samples), want)
		}
	}
}

func TestQuantileBucketEdges(t *testing.T) {
	// Ten samples spread 1..10: p50's sample lands in [4,8), p100's in
	// [8,16). The estimator answers with those buckets' upper edges.
	var h Hist
	for v := int64(1); v <= 10; v++ {
		h.Add(v)
	}
	if got := h.Quantile(0.5); got != 8 {
		t.Errorf("p50 = %d, want 8", got)
	}
	if got := h.Quantile(1); got != 16 {
		t.Errorf("p100 = %d, want 16", got)
	}
	// 10% of ten samples is exactly the first: value 1, bucket [1,2).
	if got := h.Quantile(0.1); got != 2 {
		t.Errorf("p10 = %d, want 2", got)
	}
}

func TestQuantileTinyQClampsToFirstSample(t *testing.T) {
	// q so small that q*n rounds to zero still answers from the first
	// occupied bucket, never from thin air.
	var h Hist
	h.Add(5)
	h.Add(1000)
	if got := h.Quantile(0.0001); got != 8 {
		t.Errorf("Quantile(0.0001) = %d, want 8 (edge of [4,8) holding 5)", got)
	}
}

func TestQuantileSkewedMass(t *testing.T) {
	// 99 zeros and one huge outlier: every quantile up to p99 is 0, and
	// only the very top feels the outlier.
	var h Hist
	for i := 0; i < 99; i++ {
		h.Add(0)
	}
	h.Add(1 << 30)
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("p50 = %d, want 0", got)
	}
	if got := h.Quantile(0.99); got != 0 {
		t.Errorf("p99 = %d, want 0", got)
	}
	if got := h.Quantile(1); got != 1<<31 {
		t.Errorf("p100 = %d, want %d", got, int64(1)<<31)
	}
}

func TestQuantileOverTwoBuckets(t *testing.T) {
	var a Hist
	for i := 0; i < 50; i++ {
		a.Add(1)  // bucket [1,2)
		a.Add(64) // bucket [64,128)
	}
	if a.Count != 100 {
		t.Fatalf("count %d, want 100", a.Count)
	}
	if got := a.Quantile(0.5); got != 2 {
		t.Errorf("p50 = %d, want 2", got)
	}
	if got := a.Quantile(0.9); got != 128 {
		t.Errorf("p90 = %d, want 128", got)
	}
	if a.Max != 64 {
		t.Errorf("max %d, want 64", a.Max)
	}
}

func TestQuantileNegativeSamplesClamp(t *testing.T) {
	var h Hist
	h.Add(-17)
	if h.Count != 1 || h.Sum != 0 || h.Max != 0 {
		t.Fatalf("negative add booked count=%d sum=%d max=%d, want 1/0/0", h.Count, h.Sum, h.Max)
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("p50 = %d, want 0", got)
	}
}

func TestHistStringQuotesQuantiles(t *testing.T) {
	var h Hist
	for v := int64(1); v <= 10; v++ {
		h.Add(v)
	}
	s := h.String()
	if !strings.Contains(s, "p50<=8") || !strings.Contains(s, "p99<=16") {
		t.Errorf("String() missing quantile summary:\n%s", s)
	}
}
