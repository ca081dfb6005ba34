package suite

import (
	"encoding/json"
	"sort"
)

// SchemaVersion is the BENCH_*.json schema version. Bump it whenever a
// field changes meaning or moves; consumers comparing trajectories
// across commits key on it. (2: the wall-clock fields are gone — timing
// is BENCHMARK.json's protocol, not a single traced sum.)
const SchemaVersion = 2

// Report is one suite execution: the BENCH_<suite>.json document.
// Field order is the struct order and is part of the golden-tested
// contract — append new fields at the end of the structs.
type Report struct {
	Schema    int              `json:"schema"`
	Suite     string           `json:"suite"`
	Scenarios []ScenarioResult `json:"scenarios"`
}

// ScenarioResult is one scenario's measurement. Every field is a
// deterministic function of the scenario definition: two runs of the
// same config at the same commit produce identical bytes, which is what
// makes the file a reviewable trajectory rather than noise (make
// suite-check regenerates it and diffs).
type ScenarioResult struct {
	Name       string `json:"name"`
	Workload   string `json:"workload"`
	Shape      string `json:"shape"`
	Scheduler  string `json:"scheduler"`
	Backend    string `json:"backend"`
	Clustering string `json:"clustering"`
	Window     int    `json:"window"`
	Objects    int    `json:"objects"`
	Seed       int64  `json:"seed"`
	Iters      int    `json:"iters"`

	Counters

	// Verified records that the iteration passed three-way
	// verification: harness counters == trace replay == metrics
	// registry delta. The runner fails hard when it doesn't, so a
	// written report always says true — the field exists so consumers
	// need not know that contract.
	Verified bool `json:"verified"`
}

// Counters is the deterministic projection of one iteration: the values
// that must be identical across iterations of the same scenario and
// across whole suite runs under the same seeds. (Embedded, so the JSON
// fields stay inline and in this order.)
type Counters struct {
	// Ops is the number of complex objects assembled per iteration —
	// the unit the per-op rates normalize by.
	Ops int `json:"ops"`

	// Deterministic I/O and operator counters (per iteration).
	Reads           int64   `json:"reads"`
	SeekReads       int64   `json:"seek_reads"`
	SeekTotal       int64   `json:"seek_total"`
	AvgSeek         float64 `json:"avg_seek"`
	BufferHits      int64   `json:"buffer_hits"`
	BufferMisses    int64   `json:"buffer_misses"`
	Assembled       int     `json:"assembled"`
	Aborted         int     `json:"aborted"`
	Skipped         int     `json:"skipped"`
	Retries         int     `json:"retries"`
	Stalls          int     `json:"stalls"`
	PeakWindow      int     `json:"peak_window"`
	PeakWindowPages int     `json:"peak_window_pages"`

	// Migrated (pages a reshard cut over) is checked, not reported.
	Migrated int `json:"-"`
}

// sortScenarios orders results by name — the report's ordering-stable
// contract.
func (r *Report) sortScenarios() {
	sort.Slice(r.Scenarios, func(a, b int) bool {
		return r.Scenarios[a].Name < r.Scenarios[b].Name
	})
}

// JSON renders the report, scenarios sorted by name, with a trailing
// newline.
func (r *Report) JSON() ([]byte, error) {
	r.sortScenarios()
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
