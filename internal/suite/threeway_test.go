package suite

import (
	"strings"
	"testing"
)

// TestThreeWaySuiteRuns extends the bench package's capstone invariant
// to the scenario suite: for every workload and backend the suite
// registers, one measured iteration must pass both verification legs —
// the trace replay must reconstruct exactly the harness-reported
// counters, and the metrics registry delta must agree with both.
// runIteration fails hard on any disagreement, so these assert success
// plus the cross-accounting relations that make the run meaningful.
func TestThreeWaySuiteRuns(t *testing.T) {
	cases := []struct {
		name string
		src  string
		// tune sets what has no config key.
		tune func(*Scenario)
	}{
		{"oo7-deep", `
[[scenario]]
name = "tw-oo7"
suites = ["tw"]
seed = 91
shape = "deep"
objects = 30
window = 10
`, nil},
		{"oo7-shared-sharing-stats", `
[[scenario]]
name = "tw-shared"
suites = ["tw"]
seed = 91
shape = "shared"
objects = 40
window = 10
sharing = 0.25
use_sharing_stats = true
`, nil},
		{"timeseries", `
[[scenario]]
name = "tw-ts"
suites = ["tw"]
seed = 91
workload = "timeseries"
objects = 60
append_count = 15
window = 10
`, nil},
		{"incremental", `
[[scenario]]
name = "tw-inc"
suites = ["tw"]
seed = 91
workload = "incremental"
objects = 60
mutate_count = 10
window = 10
`, nil},
		{"file-backend", `
[[scenario]]
name = "tw-file"
suites = ["tw"]
seed = 91
backend = "file"
objects = 40
window = 10
`, nil},
		{"pagesvc-backend", `
[[scenario]]
name = "tw-net"
suites = ["tw"]
seed = 91
backend = "pagesvc"
objects = 40
window = 10
`, nil},
		{"sharded-backend", `
[[scenario]]
name = "tw-sharded"
suites = ["tw"]
seed = 91
backend = "sharded"
objects = 40
window = 10
`, nil},
		{"sharded-reshard", `
[[scenario]]
name = "tw-reshard"
suites = ["tw"]
seed = 91
backend = "sharded"
workload = "reshard"
objects = 40
window = 10
`, nil},
		{"faulty-retry", `
[[scenario]]
name = "tw-fault"
suites = ["tw"]
seed = 91
objects = 60
window = 10
fault_transient = 0.1
fault_policy = "retry"
`, nil},
		{"striped-per-device-elevator", `
[[scenario]]
name = "tw-striped"
suites = ["tw"]
seed = 91
objects = 60
window = 10
`, func(sc *Scenario) { sc.Devices, sc.PerDevice = 4, true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			scs, err := ParseScenarios("tw.toml", tc.src)
			if err != nil {
				t.Fatal(err)
			}
			sc := scs[0]
			if tc.tune != nil {
				tc.tune(&sc)
			}
			d, err := runIteration(sc)
			if err != nil {
				t.Fatalf("three-way verification failed: %v", err)
			}
			if d.Assembled != d.Ops || d.Ops == 0 {
				t.Errorf("assembled %d != ops %d (or zero)", d.Assembled, d.Ops)
			}
			if d.Reads == 0 {
				t.Error("no reads measured — the bracket missed the workload")
			}
			// A cold pool faults once per distinct page it reads:
			// misses equal physical reads in every scenario that never
			// writes back mid-run (and whose every read is the pool's —
			// a reshard's migrator copies pages device to device).
			if d.BufferMisses != d.Reads && sc.Workload != WorkloadReshard {
				t.Errorf("pool misses %d != device reads %d", d.BufferMisses, d.Reads)
			}
			if d.PeakWindow == 0 || d.PeakWindow > sc.Window {
				t.Errorf("replayed peak window %d out of (0, %d]", d.PeakWindow, sc.Window)
			}
			if strings.HasPrefix(tc.name, "faulty") && d.Retries == 0 {
				t.Error("faulty scenario retried nothing — injector not armed?")
			}
		})
	}
}

// TestRunRejectsUnknownSuite pins the selector contract.
func TestRunRejectsUnknownSuite(t *testing.T) {
	scs, err := ParseScenarios("t.toml", minimal)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(scs, RunOptions{Suite: "nope"}); err == nil {
		t.Error("Run accepted a suite no scenario belongs to")
	}
}
