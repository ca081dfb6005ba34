package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef declares one metric: BENCHMARK.json lists exactly these
// names and units, and a test keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEndDefs are what a user of the engine sees. The same names are
// reported on every workload; an "object" is one complex object handed
// to the caller, except on update-wal, where it is one component
// updated and committed.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"objects_per_s", "1/s"},
	{"query_p50_ms", "ms"},
	{"cpu_us_per_object", "us"},
	{"allocs_per_object", "count"},
	{"alloc_bytes_per_object", "B"},
	{"live_heap_mb", "MB"},
	{"seek_pages_per_read", "pages"},
	{"page_reads_per_object", "count"},
}

// bounds is the share by which each end-to-end metric may get worse
// before a change counts as a regression; -aa holds two runs of the same
// code to it. README.md records how each was measured.
var bounds = map[string]float64{
	"setup_s":                0.25,
	"objects_per_s":          0.25,
	"query_p50_ms":           0.25,
	"cpu_us_per_object":      0.25,
	"allocs_per_object":      0.01,
	"alloc_bytes_per_object": 0.01,
	"live_heap_mb":           0.05,
	"seek_pages_per_read":    0.14,
	"page_reads_per_object":  0.02,
}

// exactAtOneSeed are the counted pass's metrics: fixed work from a cold
// start, so two runs at one seed agree to the last read (except on the
// fleet, whose two lanes race for the pool).
var exactAtOneSeed = map[string]bool{"seek_pages_per_read": true, "page_reads_per_object": true}

// perLayerDefs are single layers' metrics, prefixed with the module
// they measure. README.md says which end-to-end metric each should
// move, and on which workload.
var perLayerDefs = []metricDef{
	{"assembly.sched_us_per_object", "us"},
	{"assembly.sched_calls_per_object", "count"},
	{"assembly.sched_pending_max", "count"},
	{"assembly.operator_us_per_object", "us"},
	{"assembly.refs_resolved_per_object", "count"},
	{"assembly.peak_window_pages", "pages"},
	{"buffer.hit_ratio", "ratio"},
	{"buffer.misses_per_object", "count"},
	{"buffer.evictions_per_object", "count"},
	{"buffer.flushes_per_object", "count"},
	{"buffer.fix_hit_ns", "ns"},
	{"buffer.fix_miss_ns", "ns"},
	{"object.get_ns", "ns"},
	{"object.decode_ns", "ns"},
	{"object.decode_allocs", "count"},
	{"object.update_ns", "ns"},
	{"object.store_us_per_object", "us"},
	{"disk.read_us_per_object", "us"},
	{"disk.reads_per_object", "count"},
	{"disk.write_us_per_object", "us"},
	{"disk.writes_per_object", "count"},
	{"pagesvc.read_us_per_object", "us"},
	{"pagesvc.reads_per_object", "count"},
	{"pagesvc.wire_us_per_read", "us"},
	{"pagesvc.rtt_p50_us", "us"},
	{"pagesvc.pipelined_reads_per_s", "1/s"},
	{"shard.router_self_us_per_object", "us"},
	{"shard.lane_skew", "ratio"},
	{"shard.lane_overlap", "ratio"},
	{"wal.append_us_per_object", "us"},
	{"wal.sync_us_per_object", "us"},
	{"wal.syncs_per_object", "count"},
	{"wal.bytes_per_object", "B"},
	{"wal.page_writes_per_object", "count"},
	{"wal.checkpoint_ms", "ms"},
	{"wal.recover_ms_per_mb", "ms/MB"},
	{"harness.query_p90_ms", "ms"},
	{"harness.query_p99_ms", "ms"},
	{"harness.gc_pause_ms_per_s", "ms/s"},
	{"harness.segment_spread_pct", "%"},
	{"harness.calib_mops", "1/us"},
	{"harness.trace_overhead_pct", "%"},
	{"harness.span_identity_err_pct", "%"},
}

// metrics maps a metric's name to its measured value.
type metrics map[string]float64

func (m metrics) set(name string, v float64) { m[name] = v }

// missing lists the declared metrics m lacks and the undeclared ones
// it holds; both must be empty before anything is reported.
func (m metrics) missing(defs []metricDef) []string {
	var bad []string
	declared := map[string]bool{}
	for _, d := range defs {
		declared[d.name] = true
		if v, ok := m[d.name]; !ok {
			bad = append(bad, "missing "+d.name)
		} else if math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, fmt.Sprintf("%s is %v", d.name, v))
		}
	}
	for name := range m {
		if !declared[name] {
			bad = append(bad, "undeclared "+name)
		}
	}
	sort.Strings(bad)
	return bad
}

// zeroOutside reports the metrics of the given modules that are not
// zero: pagesvc and shard must be silent off the fleet, wal off the
// update workload.
func (m metrics) zeroOutside(prefixes ...string) []string {
	var bad []string
	for name, v := range m {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) && v != 0 {
				bad = append(bad, fmt.Sprintf("%s = %v, want 0", name, v))
			}
		}
	}
	sort.Strings(bad)
	return bad
}

// print writes the metrics in declaration order, one per line.
func (m metrics) print(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.name, m[d.name], d.unit)
	}
}

// result is the one JSON object the driver reads from the last line of
// standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r result) write(w io.Writer, m metrics, defs []metricDef) error {
	r.Metrics = map[string]metricValue{}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
