package metrics

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// buildExpositionRegistry constructs a registry exercising every corner
// of the text format: name sanitization, label value escaping,
// multi-series families in sorted order, and gauge functions.
func buildExpositionRegistry() *Registry {
	r := NewRegistry()
	// Name needing sanitization: slashes and a leading digit.
	r.Counter("1disk/read.count", "reads with an awkward source name").Add(3)
	// Labeled counter family, insertion order deliberately unsorted.
	r.Counter("asm_disk_reads_total", "physical page reads", "dev", "1").Add(20)
	r.Counter("asm_disk_reads_total", "physical page reads", "dev", "0").Add(10)
	// Label value needing every escape.
	r.Gauge("asm_buffer_pinned_frames", "live pinned frames", "pool",
		"we\"ird\\pool\nname").Set(4)
	// Gauge function.
	r.Attach("asm_disk_head_position", "head position in pages",
		GaugeFunc(func() int64 { return 42 }), "dev", "0")
	return r
}

// TestExpositionGolden pins the Prometheus text format byte-for-byte:
// HELP/TYPE lines, family ordering, and label escaping. Refresh with:
// go test ./internal/metrics -run Golden -update
func TestExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildExpositionRegistry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	golden := filepath.Join("testdata", "exposition.golden")
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
		t.Errorf("exposition drifted from %s (re-run with -update if intended)\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// TestExpositionDeterministic guards the golden test's premise.
func TestExpositionDeterministic(t *testing.T) {
	render := func() []byte {
		var buf bytes.Buffer
		if err := buildExpositionRegistry().WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := render(), render(); !bytes.Equal(a, b) {
		t.Error("identical registries rendered different text")
	}
}
