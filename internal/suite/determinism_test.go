package suite

import (
	"bytes"
	"testing"
)

// TestSuiteDeterminism is the regression gate for the trajectory
// premise: every scenario of the suite table — fault
// and stall knobs included — run twice from scratch yields
// byte-identical JSON. Anything nondeterministic here would
// turn BENCH_*.json diffs into noise. (The runner additionally
// cross-checks iterations within each run; this test covers whole-run
// repeatability, fresh environments and all.)
//
// One iteration per scenario keeps the double run affordable under
// -race; iteration-level determinism is already enforced inside Run.
func TestSuiteDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("double full-suite run in -short mode")
	}
	render := func() []byte {
		rep, err := Run(Scenarios(), RunOptions{Suite: "core", Iters: 1})
		if err != nil {
			t.Fatal(err)
		}
		out, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Errorf("two runs of the core suite produced different JSON:\nfirst:\n%s\nsecond:\n%s", a, b)
	}
}
