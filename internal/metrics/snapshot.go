package metrics

import "strings"

// Snapshot is a point-in-time reading of every scalar sample in a
// registry, keyed exactly as the exposition renders them:
// name{k="v",...}.
//
// Snapshots exist so the bench harness can report per-run deltas
// without cold-resetting live counters: snapshot before, snapshot
// after, Delta. A counter that is never reset stays meaningful to a
// concurrent scraper for the whole lifetime of the process.
type Snapshot map[string]int64

// sampleKey builds the canonical key for a series.
func sampleKey(name string, labelNames, labelValues []string) string {
	return name + labelString(labelNames, labelValues)
}

// Snapshot reads every sample. A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		for _, c := range f.children {
			s[sampleKey(f.name, f.labelNames, c.labelValues)] = cellValue(c.cell)
		}
	}
	return s
}

// Delta returns s - prev, sample by sample, over the keys present in s
// (a key absent from prev counts from zero). Deltas are exact for
// counters; a delta over a gauge is a change in
// level, meaningful only when the caller knows the gauge is monotone
// over the interval.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := make(Snapshot, len(s))
	for k, v := range s {
		d[k] = v - prev[k]
	}
	return d
}

// Value looks up the sample for name and the given alternating label
// name/value pairs, applying the same name sanitization as
// registration. Missing samples read as zero.
func (s Snapshot) Value(name string, labelPairs ...string) int64 {
	names, values := splitPairs(labelPairs)
	return s[sampleKey(sanitizeName(name), names, values)]
}

// Sum adds every sample whose name part (before any '{') equals the
// sanitized name, aggregating a family across its label sets — e.g. the
// total reads over all devices.
func (s Snapshot) Sum(name string) int64 {
	sname := sanitizeName(name)
	var total int64
	for k, v := range s {
		base, _, _ := strings.Cut(k, "{")
		if base == sname {
			total += v
		}
	}
	return total
}
