package suite

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"revelation/internal/assembly"
	"revelation/internal/gen"
)

// minimal is a valid single-scenario config other cases perturb.
const minimal = `
[[scenario]]
name = "s1"
suites = ["core"]
seed = 91
`

func TestParseScenariosValid(t *testing.T) {
	scs, err := ParseScenarios("t.toml", minimal)
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 1 {
		t.Fatalf("got %d scenarios", len(scs))
	}
	sc := scs[0]
	// Defaults.
	if sc.Name != "s1" || sc.Seed != 91 || sc.Workload != WorkloadAssemble ||
		sc.Shape != ShapePaper || sc.Backend != BackendLocal ||
		sc.Scheduler != assembly.Elevator || sc.Clustering != gen.Unclustered ||
		sc.Iters != 3 || sc.Warmup != 1 || sc.Window != 20 || sc.Objects != 200 {
		t.Errorf("defaults wrong: %+v", sc)
	}
	if sc.FaultSeed != sc.Seed {
		t.Errorf("fault seed defaults to seed, got %d", sc.FaultSeed)
	}
	if sc.FaultPolicy != assembly.RetryFaults {
		t.Errorf("fault policy defaults to retry, got %v", sc.FaultPolicy)
	}
}

func TestParseScenariosFullKnobs(t *testing.T) {
	src := `
[[scenario]]
name = "full"            # inline comment with "quotes # inside"
suites = ["core", "smoke"]
seed = 7
workload = "timeseries"
shape = "deep"
clustering = "inter-object"
scheduler = "breadth-first"
backend = "local"
objects = 40
window = 5
buffer_pages = 64
iters = 2
warmup = 0
append_count = 10
stall_rate = 0.5
stall_us = 250
pin_window = true
page_batch = true
`
	scs, err := ParseScenarios("t.toml", src)
	if err != nil {
		t.Fatal(err)
	}
	sc := scs[0]
	if sc.Workload != WorkloadTimeSeries || sc.Shape != ShapeDeep ||
		sc.Clustering != gen.InterObject || sc.Scheduler != assembly.BreadthFirst ||
		sc.BufferPgs != 64 || sc.AppendCount != 10 || sc.StallRate != 0.5 ||
		sc.Stall.Microseconds() != 250 || !sc.PinWindow || !sc.PageBatch {
		t.Errorf("knobs wrong: %+v", sc)
	}
	if len(sc.Suites) != 2 || !sc.InSuite("core") || !sc.InSuite("smoke") || sc.InSuite("other") {
		t.Errorf("suites wrong: %v", sc.Suites)
	}
}

// parseErrorCases is the table-driven validation contract (and the
// fuzz target's seed corpus): every bad config is rejected, the message
// carries the offending line number, and names the problem.
var parseErrorCases = []struct {
	name string
	src  string
	// want are substrings the error must contain; a ":N:" entry
	// pins the reported line number.
	want []string
}{
	{
		name: "unknown key",
		src:  minimal + "wibble = 3\n",
		want: []string{`unknown key "wibble"`, ":6:"},
	},
	{
		name: "seed required",
		src:  "[[scenario]]\nname = \"s\"\nsuites = [\"core\"]\n",
		want: []string{"seed is required"},
	},
	{
		name: "missing name",
		src:  "[[scenario]]\nsuites = [\"core\"]\nseed = 1\n",
		want: []string{"needs a name"},
	},
	{
		name: "missing suites",
		src:  "[[scenario]]\nname = \"s\"\nseed = 1\n",
		want: []string{"suites list is required"},
	},
	{
		name: "duplicate scenario name",
		src:  minimal + "\n[[scenario]]\nname = \"s1\"\nsuites = [\"core\"]\nseed = 2\n",
		want: []string{`scenario "s1" already defined`},
	},
	{
		name: "duplicate key",
		src:  minimal + "seed = 92\n",
		want: []string{`duplicate key "seed"`, ":6:"},
	},
	{
		name: "wrong type",
		src:  minimal + "window = \"big\"\n",
		want: []string{`key "window": got string, want integer`, ":6:"},
	},
	{
		name: "unknown workload",
		src:  minimal + "workload = \"scan\"\n",
		want: []string{`unknown workload "scan"`, ":6:"},
	},
	{
		name: "unknown scheduler",
		src:  minimal + "scheduler = \"random\"\n",
		want: []string{`unknown scheduler "random"`},
	},
	{
		name: "unknown backend",
		src:  minimal + "backend = \"cloud\"\n",
		want: []string{`unknown backend "cloud"`},
	},
	{
		name: "sharing out of range",
		src:  minimal + "sharing = 1.5\n",
		want: []string{"sharing must be in [0, 1)", ":6:"},
	},
	{
		name: "rate out of range",
		src:  minimal + "fault_transient = 2.0\n",
		want: []string{"fault_transient must be in [0, 1]"},
	},
	{
		name: "faults need local backend",
		src:  minimal + "backend = \"pagesvc\"\nfault_transient = 0.1\n",
		want: []string{`fault/stall knobs require backend = "local"`, ":6:"},
	},
	{
		name: "timeseries needs append_count",
		src:  minimal + "workload = \"timeseries\"\n",
		want: []string{"needs append_count"},
	},
	{
		name: "append_count only for timeseries",
		src:  minimal + "append_count = 5\n",
		want: []string{"append_count only applies to the timeseries workload", ":6:"},
	},
	{
		name: "timeseries forbids sharing",
		src:  minimal + "workload = \"timeseries\"\nappend_count = 5\nsharing = 0.5\n",
		want: []string{"sharing is not supported", ":8:"},
	},
	{
		name: "incremental needs mutate_count",
		src:  minimal + "workload = \"incremental\"\n",
		want: []string{"needs mutate_count"},
	},
	{
		name: "mutate_count only for incremental",
		src:  minimal + "mutate_count = 5\n",
		want: []string{"mutate_count only applies to the incremental workload"},
	},
	{
		name: "incremental forbids faults",
		src:  minimal + "workload = \"incremental\"\nmutate_count = 5\nfault_transient = 0.1\n",
		want: []string{"does not support fault injection"},
	},
	{
		name: "sharing stats need sharing",
		src:  minimal + "use_sharing_stats = true\n",
		want: []string{"use_sharing_stats needs sharing > 0"},
	},
	{
		name: "zero window",
		src:  minimal + "window = 0\n",
		want: []string{"window must be >= 1", ":6:"},
	},
	{
		name: "unknown section",
		src:  "[[workload]]\nname = \"x\"\n",
		want: []string{"unknown section [[workload]]", ":1:"},
	},
	{
		name: "plain table",
		src:  "[scenario]\nname = \"x\"\n",
		want: []string{"plain [tables] are not supported"},
	},
	{
		name: "key outside section",
		src:  "name = \"x\"\n",
		want: []string{"key outside any [[scenario]] section", ":1:"},
	},
	{
		name: "malformed value",
		src:  minimal + "objects = 10abc\n",
		want: []string{`bad value "10abc"`, ":6:"},
	},
	{
		name: "unterminated array",
		src:  "[[scenario]]\nname = \"s\"\nsuites = [\"core\"\nseed = 1\n",
		want: []string{"unterminated array", ":3:"},
	},
	{
		name: "empty config",
		src:  "# nothing here\n",
		want: []string{"no [[scenario]] sections"},
	},
}

func TestParseScenariosErrors(t *testing.T) {
	for _, tc := range parseErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseScenarios("t.toml", tc.src)
			if err == nil {
				t.Fatalf("config accepted:\n%s", tc.src)
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q\n  missing %q", err, w)
				}
			}
		})
	}
}

// TestRepoConfigParses pins the checked-in config: it must parse, and
// it must cover the suite contract — at least 6 core scenarios across
// at least 2 scheduling policies and 2 backends, including the three
// workloads, plus a non-empty smoke subset.
func TestRepoConfigParses(t *testing.T) {
	scs := loadRepoConfig(t)
	schedulers := map[string]bool{}
	backends := map[Backend]bool{}
	workloads := map[Workload]bool{}
	core, smoke := 0, 0
	for _, sc := range scs {
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
	if smoke < 2 || smoke > 4 {
		t.Errorf("smoke suite has %d scenarios, want a small CI subset (2-4)", smoke)
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

// FuzzParseScenarios feeds arbitrary bytes to the config parser: it
// must return scenarios or an error that names the file (with a line —
// the table above pins those), never panic, and a scenario that parses
// must satisfy the validator's own range checks — a config cannot slip
// a knob past them by any spelling.
func FuzzParseScenarios(f *testing.F) {
	core, err := os.ReadFile(filepath.Join("..", "..", "suites", "core.toml"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(core))
	f.Add(minimal)
	for _, tc := range parseErrorCases {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		scs, err := ParseScenarios("fuzz.toml", src)
		if err != nil {
			if !strings.Contains(err.Error(), "fuzz.toml") {
				t.Fatalf("error does not name the file: %v", err)
			}
			return
		}
		if len(scs) == 0 {
			t.Fatal("no error and no scenarios")
		}
		for _, sc := range scs {
			if sc.Name == "" || len(sc.Suites) == 0 {
				t.Errorf("scenario without name or suites parsed: %+v", sc)
			}
			if sc.Objects < 1 || sc.Window < 1 || sc.Iters < 1 || sc.Warmup < 0 {
				t.Errorf("%s: count out of range: objects %d window %d iters %d warmup %d",
					sc.Name, sc.Objects, sc.Window, sc.Iters, sc.Warmup)
			}
			if !(sc.Sharing >= 0 && sc.Sharing < 1) {
				t.Errorf("%s: sharing %v outside [0, 1)", sc.Name, sc.Sharing)
			}
			for _, rate := range []float64{sc.FaultTransient, sc.FaultPermanent, sc.StallRate} {
				if !(rate >= 0 && rate <= 1) {
					t.Errorf("%s: rate %v outside [0, 1]", sc.Name, rate)
				}
			}
		}
	})
}
