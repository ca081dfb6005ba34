package suite

import (
	"reflect"
	"strings"
	"testing"
)

// TestSuiteScenarios pins the suite table: every entry passes validate
// as written and leaves nothing to withDefaults, pins a seed, has a unique name and belongs to a suite, and
// the table covers the suite contract — a non-empty smoke subset and a
// core suite of at least 6 scenarios across at least 2 scheduling
// policies and 2 backends, including the assemble, timeseries and
// incremental workloads.
func TestSuiteScenarios(t *testing.T) {
	names := map[string]bool{}
	schedulers := map[string]bool{}
	backends := map[Backend]bool{}
	workloads := map[Workload]bool{}
	core, smoke := 0, 0
	for _, sc := range Scenarios() {
		if err := sc.validate(); err != nil {
			t.Error(err)
		}
		if !reflect.DeepEqual(sc.withDefaults(), sc) {
			t.Errorf("%s: leaves a knob to withDefaults", sc.Name)
		}
		if sc.Seed == 0 {
			t.Errorf("%s: no seed", sc.Name)
		}
		if sc.Name == "" || names[sc.Name] {
			t.Errorf("scenario name %q empty or repeated", sc.Name)
		}
		names[sc.Name] = true
		if len(sc.Suites) == 0 {
			t.Errorf("%s: belongs to no suite", sc.Name)
		}
		if sc.InSuite("core") {
			core++
			schedulers[sc.Scheduler.String()] = true
			backends[sc.Backend] = true
			workloads[sc.Workload] = true
		}
		if sc.InSuite("smoke") {
			smoke++
		}
	}
	if core < 6 {
		t.Errorf("core suite has %d scenarios, want >= 6", core)
	}
	if smoke == 0 {
		t.Error("smoke suite is empty")
	}
	if len(schedulers) < 2 {
		t.Errorf("core covers %d scheduling policies, want >= 2: %v", len(schedulers), schedulers)
	}
	if len(backends) < 2 {
		t.Errorf("core covers %d backends, want >= 2: %v", len(backends), backends)
	}
	for _, w := range []Workload{WorkloadAssemble, WorkloadTimeSeries, WorkloadIncremental} {
		if !workloads[w] {
			t.Errorf("core is missing the %s workload", w)
		}
	}
}

// TestScenarioValidate is the knob-combination contract: every
// contradictory scenario is rejected with a message naming the problem.
func TestScenarioValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   Scenario
		want string
	}{
		{"sharing out of range", Scenario{Sharing: 1.5}, "sharing must be in [0, 1)"},
		{"rate out of range", Scenario{FaultTransient: 2}, "rates must be in [0, 1]"},
		{"faults need local backend", Scenario{Backend: BackendPagesvc, FaultTransient: 0.1}, "require the local backend"},
		{"timeseries needs append count", Scenario{Workload: WorkloadTimeSeries}, "needs AppendCount"},
		{"append count only for timeseries", Scenario{AppendCount: 5}, "AppendCount only applies to the timeseries workload"},
		{"timeseries forbids sharing", Scenario{Workload: WorkloadTimeSeries, AppendCount: 5, Sharing: 0.5}, "sharing is not supported"},
		{"incremental needs mutate count", Scenario{Workload: WorkloadIncremental}, "needs MutateCount"},
		{"mutate count only for incremental", Scenario{MutateCount: 5}, "MutateCount only applies to the incremental workload"},
		{"incremental forbids faults", Scenario{Workload: WorkloadIncremental, MutateCount: 5, FaultTransient: 0.1}, "does not support fault injection"},
		{"reshard needs sharded backend", Scenario{Workload: WorkloadReshard}, "needs the sharded backend"},
		{"sharing stats need sharing", Scenario{UseSharingStats: true}, "UseSharingStats needs Sharing > 0"},
		{"objects below one", Scenario{Objects: -1}, "objects must be >= 1"},
		{"window below one", Scenario{Window: -1}, "window must be >= 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := tc.sc
			sc.Name = "s"
			if sc.Objects == 0 {
				sc.Objects = 10
			}
			if sc.Window == 0 {
				sc.Window = 1
			}
			if sc.Backend == "" {
				sc.Backend = BackendLocal
			}
			err := sc.validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("validate() = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
