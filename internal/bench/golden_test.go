package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// TestFiguresJSONGolden pins the asmbench -json output byte-for-byte:
// field order, indentation, and the numbers of every deterministic
// figure at scale 0.1 (asmbench -figure all -scale 0.1 -json). The schema is a contract — downstream plotting scripts and the
// trace replay both consume it — so any change must be deliberate and
// show up in this file's diff. Refresh with: go test ./internal/bench
// -run Golden -update
func TestFiguresJSONGolden(t *testing.T) {
	figs, err := NewRunner().AllFigures(0.1)
	if err != nil {
		t.Fatalf("AllFigures: %v", err)
	}
	got, err := FiguresJSON(figs)
	if err != nil {
		t.Fatalf("FiguresJSON: %v", err)
	}

	golden := filepath.Join("testdata", "figures.golden.json")
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
		t.Errorf("figure JSON drifted from %s (re-run with -update if intended)\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// TestFiguresJSONDeterministic guards the premise of the golden test:
// two runs from fresh runners must produce identical bytes.
func TestFiguresJSONDeterministic(t *testing.T) {
	render := func() []byte {
		r := NewRunner()
		fig, err := r.FigScheduling(50, 'c', 0.1)
		if err != nil {
			t.Fatalf("FigScheduling: %v", err)
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
