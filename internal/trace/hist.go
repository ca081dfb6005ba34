package trace

import (
	"fmt"
	"math/bits"
	"strings"
)

// histBuckets is enough for any int64 value: bucket i holds values v
// with bitlen(v) == i, i.e. bucket 0 holds 0, bucket i (i>0) holds
// [2^(i-1), 2^i).
const histBuckets = 64

// Hist is a power-of-two histogram of non-negative int64 samples (seek
// distances in pages, latencies in nanoseconds). The zero value is
// ready to use; copying snapshots it.
type Hist struct {
	Buckets [histBuckets]int64
	Count   int64
	Sum     int64
	Max     int64
}

// bucketOf maps a sample to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Add records one sample; negative samples clamp to zero.
func (h *Hist) Add(v int64) {
	if v < 0 {
		v = 0
	}
	h.Buckets[bucketOf(v)]++
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// Mean returns the average sample, or zero when empty.
func (h Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// exclusive upper edge of the bucket containing it. Resolution is a
// factor of two, which is all a scheduling comparison needs.
func (h Hist) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	target := int64(q * float64(h.Count))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i, n := range h.Buckets {
		seen += n
		if seen >= target {
			if i == 0 {
				return 0
			}
			return 1 << uint(i)
		}
	}
	return h.Max
}

// String renders the non-empty buckets as a compact bar chart, one line
// per bucket: range, count, and a proportional bar.
func (h Hist) String() string {
	if h.Count == 0 {
		return "(empty)"
	}
	var peak int64
	hi := 0
	for i, n := range h.Buckets {
		if n > peak {
			peak = n
		}
		if n > 0 {
			hi = i
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.1f max=%d p50<=%d p99<=%d\n",
		h.Count, h.Mean(), h.Max, h.Quantile(0.50), h.Quantile(0.99))
	for i := 0; i <= hi; i++ {
		n := h.Buckets[i]
		if n == 0 {
			continue
		}
		lo, hiEdge := int64(0), int64(0)
		if i > 0 {
			lo, hiEdge = 1<<uint(i-1), 1<<uint(i)-1
		}
		bar := int(40 * n / peak)
		if bar == 0 {
			bar = 1
		}
		fmt.Fprintf(&b, "  [%8d..%8d] %8d %s\n", lo, hiEdge, n, strings.Repeat("#", bar))
	}
	return b.String()
}
