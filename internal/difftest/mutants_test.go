package difftest

// The mutant corpus. Each file under testdata/mutants is one recorded
// mutant of the engine: a snippet of one source file, its replacement,
// the tests that must catch it and the text their failure must print.
// TestMutants applies each one through `go test -overlay`, so the tree
// is never touched, and reports it
//
//   - caught: the tests failed and printed every expected line;
//   - survived: the tests passed;
//   - rotted: a name in run is no test of pkg (go test -list), the
//     snippet is not in its file exactly once, or the tests failed some
//     other way — a mutant that no longer builds, or one caught at
//     another seed or step than the one recorded.
//
// Every corpus entry must be caught. The runner uses the standard
// library only and runs only with MUTANTS=1 (make mutants), since each
// mutant is a build and a test run of its own.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// mutant is one corpus entry. A file of the corpus holds
//
//	# comments
//	pkg: ./internal/buffer            the package whose tests run
//	file: internal/buffer/buffer.go   the file mutated, from the module root
//	run: TestA|TestB                  the tests, anchored as ^(…)$
//	expect: seed 3 step 17            a line the failure must print (one or more)
//	--- snippet
//	the exact source text, found exactly once
//	--- replacement
//	what replaces it
//
// The snippet and the replacement are the lines between the markers,
// joined by newlines, without the last one; a mutant that deletes lines
// keeps a line beside them in both, so that neither is empty.
type mutant struct {
	name        string
	pkg         string
	file        string
	run         string
	expect      []string
	snippet     string
	replacement string
}

type verdict string

const (
	caught   verdict = "caught"
	survived verdict = "survived"
	rotted   verdict = "rotted"
)

// parseMutant reads one corpus entry.
func parseMutant(name, text string) (mutant, error) {
	m := mutant{name: name}
	head, body, ok := strings.Cut(strings.TrimSuffix(text, "\n"), "--- snippet\n")
	if !ok {
		return m, fmt.Errorf("%s: no --- snippet line", name)
	}
	if m.snippet, m.replacement, ok = strings.Cut(body, "\n--- replacement\n"); !ok {
		return m, fmt.Errorf("%s: no --- replacement line", name)
	}
	for _, line := range strings.Split(head, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, ": ")
		switch {
		case !ok:
			return m, fmt.Errorf("%s: %q is no key: value", name, line)
		case key == "pkg":
			m.pkg = val
		case key == "file":
			m.file = val
		case key == "run":
			m.run = val
		case key == "expect":
			m.expect = append(m.expect, val)
		default:
			return m, fmt.Errorf("%s: unknown key %q", name, key)
		}
	}
	if m.pkg == "" || m.file == "" || m.run == "" || len(m.expect) == 0 || m.snippet == "" {
		return m, fmt.Errorf("%s: pkg, file, run, expect and a snippet are required", name)
	}
	return m, nil
}

// loadCorpus reads every entry of dir, in name order (Glob sorts).
func loadCorpus(t *testing.T, dir string) []mutant {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.mutant"))
	if err != nil {
		t.Fatal(err)
	}
	var ms []mutant
	for _, path := range names {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := parseMutant(strings.TrimSuffix(filepath.Base(path), ".mutant"), string(text))
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	return ms
}

// moduleRoot is the directory of the module's go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	return filepath.Dir(strings.TrimSpace(string(out)))
}

// unlisted returns the first name of m.run that go test -list does not
// find in m.pkg, or "" when it finds them all. A pattern that matches no
// test makes go test pass with "no tests to run", which would report a
// renamed test's mutant as survived.
func (m mutant) unlisted(root string) (string, error) {
	cmd := exec.Command("go", "test", "-list", "^("+m.run+")$", m.pkg)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go test -list: %v\n%s", err, out)
	}
	listed := strings.Split(string(out), "\n")
	for _, name := range strings.Split(m.run, "|") {
		if !slices.Contains(listed, name) {
			return name, nil
		}
	}
	return "", nil
}

// apply runs m's tests with m in an overlay and returns its verdict and
// what explains it.
func (m mutant) apply(t *testing.T, root string) (verdict, string) {
	switch name, err := m.unlisted(root); {
	case err != nil:
		return rotted, err.Error()
	case name != "":
		return rotted, fmt.Sprintf("run names %s, no test of %s", name, m.pkg)
	}
	src, err := os.ReadFile(filepath.Join(root, m.file))
	if err != nil {
		return rotted, err.Error()
	}
	if n := strings.Count(string(src), m.snippet); n != 1 {
		return rotted, fmt.Sprintf("the snippet is in %s %d times", m.file, n)
	}
	dir := t.TempDir()
	mutated := filepath.Join(dir, filepath.Base(m.file))
	if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.snippet, m.replacement, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	overlay, err := json.Marshal(map[string]map[string]string{
		"Replace": {filepath.Join(root, m.file): mutated},
	})
	if err != nil {
		t.Fatal(err)
	}
	overlayPath := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(overlayPath, overlay, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "test", "-count=1", "-overlay="+overlayPath, "-run", "^("+m.run+")$", m.pkg)
	cmd.Dir = root
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "MUTANTS=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	out, err := cmd.CombinedOutput()
	if err == nil {
		return survived, "the tests passed"
	}
	for _, want := range m.expect {
		if !strings.Contains(string(out), want) {
			return rotted, fmt.Sprintf("the tests failed without %q:\n%s", want, out)
		}
	}
	return caught, m.expect[0]
}

func requireMutants(t *testing.T) {
	if os.Getenv("MUTANTS") != "1" {
		t.Skip("the mutant corpus runs with MUTANTS=1 (make mutants)")
	}
}

// TestMutants applies every corpus entry; each must be caught.
func TestMutants(t *testing.T) {
	requireMutants(t)
	root := moduleRoot(t)
	ms := loadCorpus(t, filepath.Join("testdata", "mutants"))
	if len(ms) == 0 {
		t.Fatal("the corpus is empty")
	}
	for _, m := range ms {
		v, why := m.apply(t, root)
		t.Logf("%-8s %-28s %s", v, m.name, strings.SplitN(why, "\n", 2)[0])
		if v != caught {
			t.Errorf("mutant %s %s: %s", m.name, v, why)
		}
	}
}

// TestMutantVerdicts plants a mutant that changes nothing, which must
// survive, one whose snippet is in no file and one that names a test
// its package does not have, which must both rot.
func TestMutantVerdicts(t *testing.T) {
	requireMutants(t)
	root := moduleRoot(t)
	dir := t.TempDir()
	planted := map[string]string{
		"noop": "pkg: ./internal/difftest\nfile: internal/difftest/difftest.go\nrun: TestCountRule\nexpect: never printed\n" +
			"--- snippet\nconst Race = race\n--- replacement\nconst Race = race\n",
		"missing": "pkg: ./internal/difftest\nfile: internal/difftest/difftest.go\nrun: TestCountRule\nexpect: never printed\n" +
			"--- snippet\nconst Race = !race\n--- replacement\nconst Race = race\n",
		// go test -run ^(TestCountRuleRenamed)$ passes with "no tests
		// to run".
		"renamed": "pkg: ./internal/difftest\nfile: internal/difftest/difftest.go\nrun: TestCountRuleRenamed\nexpect: never printed\n" +
			"--- snippet\nconst Race = race\n--- replacement\nconst Race = race\n",
	}
	for name, text := range planted {
		if err := os.WriteFile(filepath.Join(dir, name+".mutant"), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]verdict{"noop": survived, "missing": rotted, "renamed": rotted}
	ms := loadCorpus(t, dir)
	if len(ms) != len(want) {
		t.Fatalf("loaded %d planted mutants, want %d", len(ms), len(want))
	}
	for _, m := range ms {
		if v, why := m.apply(t, root); v != want[m.name] {
			t.Errorf("planted mutant %s %s (%s), want %s", m.name, v, why, want[m.name])
		}
	}
}
