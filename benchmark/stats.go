package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	return quantileSorted(sorted(xs), q)
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the interquartile range as a share of the median — the
// noise figure the harness reports for its own segments.
func spread(xs []float64) float64 {
	s := sorted(xs)
	m := quantileSorted(s, 0.5)
	if len(s) == 0 || m == 0 {
		return 0
	}
	return (quantileSorted(s, 0.75) - quantileSorted(s, 0.25)) / m
}

// relDiff is |a-b| as a share of their mean; 0 when both are 0.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / ((math.Abs(a) + math.Abs(b)) / 2)
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
