package suite

import (
	"strings"
	"testing"

	"revelation/internal/assembly"
)

// TestThreeWaySuiteRuns extends the bench package's capstone invariant
// to the scenario suite: for every workload and backend the suite
// registers, one measured iteration must pass both verification legs —
// the trace replay must reconstruct exactly the harness-reported
// counters, and the metrics registry delta must agree with both.
// runIteration fails hard on any disagreement, so these assert success
// plus the cross-accounting relations that make the run meaningful.
func TestThreeWaySuiteRuns(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   Scenario
	}{
		{"oo7-deep", Scenario{Shape: ShapeDeep, Objects: 30}},
		{"oo7-shared-sharing-stats", Scenario{Shape: ShapeShared, Objects: 40, Sharing: 0.25, UseSharingStats: true}},
		{"timeseries", Scenario{Workload: WorkloadTimeSeries, Objects: 60, AppendCount: 15}},
		{"incremental", Scenario{Workload: WorkloadIncremental, Objects: 60, MutateCount: 10}},
		{"file-backend", Scenario{Backend: BackendFile, Objects: 40}},
		{"pagesvc-backend", Scenario{Backend: BackendPagesvc, Objects: 40}},
		{"sharded-backend", Scenario{Backend: BackendSharded, Objects: 40}},
		{"sharded-reshard", Scenario{Backend: BackendSharded, Workload: WorkloadReshard, Objects: 40}},
		{"faulty-retry", Scenario{Objects: 60, FaultTransient: 0.1}},
		{"striped-per-device-elevator", Scenario{Objects: 60, Devices: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := tc.sc
			sc.Name, sc.Seed, sc.FaultSeed, sc.Window = "tw-"+tc.name, 91, 91, 10
			sc.Scheduler, sc.FaultPolicy = assembly.Elevator, assembly.RetryFaults
			sc = sc.withDefaults()
			if err := sc.validate(); err != nil {
				t.Fatal(err)
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
	if _, err := Run(goldenScenarios, RunOptions{Suite: "nope"}); err == nil {
		t.Error("Run accepted a suite no scenario belongs to")
	}
}
