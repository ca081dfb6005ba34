package suite

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// loadRepoConfig parses the checked-in suites/core.toml.
func loadRepoConfig(t *testing.T) []Scenario {
	t.Helper()
	path := filepath.Join("..", "..", "suites", "core.toml")
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	scs, err := ParseScenarios(path, string(src))
	if err != nil {
		t.Fatal(err)
	}
	return scs
}

// goldenConfig is a fixed two-scenario suite for the golden test. It is
// deliberately NOT the repo config: BENCH_core.json is the trajectory
// that moves when the operator improves, while this file pins the
// report schema itself — version field, field order, name ordering —
// so schema drift is always a deliberate diff here.
const goldenConfig = `
[[scenario]]
name = "golden-b"
suites = ["golden"]
seed = 91
objects = 60
window = 10
iters = 1
warmup = 0

[[scenario]]
name = "golden-a"
suites = ["golden"]
seed = 91
objects = 60
window = 10
scheduler = "depth-first"
iters = 1
warmup = 0
`

// TestReportGolden pins the BENCH_*.json bytes of a fixed
// seeded mini-suite: schema version, field order, and scenario
// ordering (by name, regardless of config order). Refresh with:
// go test ./internal/suite -run Golden -update
func TestReportGolden(t *testing.T) {
	scs, err := ParseScenarios("golden.toml", goldenConfig)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(scs, RunOptions{Suite: "golden"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "suite.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("suite report drifted from %s (re-run with -update if intended)\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}

	// Ordering contract: scenarios sorted by name even though the
	// config declares golden-b first.
	if rep.Scenarios[0].Name != "golden-a" || rep.Scenarios[1].Name != "golden-b" {
		t.Errorf("scenarios not name-sorted: %s, %s", rep.Scenarios[0].Name, rep.Scenarios[1].Name)
	}
}

// TestReportSchemaShape decodes the report generically and checks the
// schema contract consumers rely on: a version field, sorted scenario
// names, verified flags, and no wall-clock fields.
func TestReportSchemaShape(t *testing.T) {
	scs, err := ParseScenarios("golden.toml", goldenConfig)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(scs, RunOptions{Suite: "golden"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema    int    `json:"schema"`
		Suite     string `json:"suite"`
		Scenarios []map[string]any
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != SchemaVersion {
		t.Errorf("schema = %d, want %d", doc.Schema, SchemaVersion)
	}
	if doc.Suite != "golden" {
		t.Errorf("suite = %q", doc.Suite)
	}
	for i, sc := range doc.Scenarios {
		if v, ok := sc["verified"].(bool); !ok || !v {
			t.Errorf("scenario %d: verified = %v", i, sc["verified"])
		}
		for _, k := range []string{"ns_per_op", "allocs_per_op", "bytes_per_op"} {
			if _, ok := sc[k]; ok {
				t.Errorf("scenario %d: wall-clock field %s in the report", i, k)
			}
		}
		if i > 0 && doc.Scenarios[i-1]["name"].(string) >= sc["name"].(string) {
			t.Errorf("scenarios out of order at %d: %v >= %v", i, doc.Scenarios[i-1]["name"], sc["name"])
		}
	}
}

// TestFiguresJSONGolden pins the asmbench -json output byte-for-byte:
// field order, indentation, and the numbers of every deterministic
// figure at scale 0.1 (asmbench -figure all -scale 0.1 -json). The
// schema is a contract — downstream plotting scripts and the trace
// replay both consume it — so any change must be deliberate and show up
// in this file's diff. Refresh with: go test ./internal/suite -run
// Golden -update
func TestFiguresJSONGolden(t *testing.T) {
	var s Session
	figs, err := s.AllFigures(FigureParams{Scale: 0.1, Faults: DefaultFaultOptions})
	if err != nil {
		t.Fatalf("AllFigures: %v", err)
	}
	got, err := FiguresJSON(figs)
	if err != nil {
		t.Fatalf("FiguresJSON: %v", err)
	}

	golden := filepath.Join("testdata", "figures.golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("figure JSON drifted from %s (re-run with -update if intended)\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// TestFiguresJSONDeterministic guards the premise of the golden test:
// two runs from fresh sessions must produce identical bytes.
func TestFiguresJSONDeterministic(t *testing.T) {
	render := func() []byte {
		var s Session
		fig, err := s.Figure("fig13c", FigureParams{Scale: 0.1})
		if err != nil {
			t.Fatalf("Figure: %v", err)
		}
		out, err := FiguresJSON([]Figure{fig})
		if err != nil {
			t.Fatalf("FiguresJSON: %v", err)
		}
		return out
	}
	if a, b := render(), render(); !bytes.Equal(a, b) {
		t.Error("identical seeded runs rendered different JSON")
	}
}
