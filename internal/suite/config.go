// Package suite is the repo's one in-tree harness. A Scenario describes
// a run — DB shape, scheduling policy, window and buffer knobs,
// fault/stall injection, device backend; an env is the device stack
// built for it; run measures one scenario cold over an env inside the
// Measurement bracket. Two front ends sit on that:
//
//   - the continuous scenario suite (Run, cmd/asmsuite): named scenarios
//     loaded from a checked-in config, every iteration three-way
//     verified (harness counters == trace replay == metrics registry
//     delta), emitted as the schema-versioned BENCH_<suite>.json
//     trajectory at the repo root;
//   - the figure table (Session.Figure, cmd/asmbench, cmd/asmserve): the
//     paper's Section 6 evaluation and this reproduction's ablations,
//     each a row of figureTable swept by one loop.
//
// The config format is a deliberately small TOML subset, in the spirit
// of the Go toolchain's benchmark suites: [[scenario]] table arrays of
// `key = value` lines. Only the forms the suite needs parse — strings,
// integers, floats, booleans, and string arrays — and every error
// carries the line number it came from, because a config that fails
// silently is a scenario that silently stops running.
package suite

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Value is one parsed right-hand side with its source line.
type Value struct {
	Line int
	// Exactly one of the following is meaningful, per Kind.
	Kind ValueKind
	Str  string
	Int  int64
	F    float64
	Bool bool
	Strs []string
}

// ValueKind discriminates Value.
type ValueKind int

// Value kinds.
const (
	KindString ValueKind = iota
	KindInt
	KindFloat
	KindBool
	KindStrings
)

func (k ValueKind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "integer"
	case KindFloat:
		return "float"
	case KindBool:
		return "boolean"
	case KindStrings:
		return "string array"
	}
	return "unknown"
}

// Table is one [[scenario]] section: its keys and its header line.
type Table struct {
	Line int
	Keys map[string]Value
}

// parseConfig splits src into [[scenario]] tables. name is used in
// error messages (typically the file path).
func parseConfig(name, src string) ([]Table, error) {
	var tables []Table
	var cur *Table
	for i, raw := range strings.Split(src, "\n") {
		ln := i + 1
		line := strings.TrimSpace(stripComment(raw))
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "[[") {
			if !strings.HasSuffix(line, "]]") {
				return nil, fmt.Errorf("%s:%d: malformed table header %q", name, ln, line)
			}
			section := strings.TrimSpace(line[2 : len(line)-2])
			if section != "scenario" {
				return nil, fmt.Errorf("%s:%d: unknown section [[%s]] (only [[scenario]] is recognized)", name, ln, section)
			}
			tables = append(tables, Table{Line: ln, Keys: map[string]Value{}})
			cur = &tables[len(tables)-1]
			continue
		}
		if strings.HasPrefix(line, "[") {
			return nil, fmt.Errorf("%s:%d: plain [tables] are not supported; use [[scenario]]", name, ln)
		}
		eq := strings.Index(line, "=")
		if eq < 0 {
			return nil, fmt.Errorf("%s:%d: expected key = value, got %q", name, ln, line)
		}
		if cur == nil {
			return nil, fmt.Errorf("%s:%d: key outside any [[scenario]] section", name, ln)
		}
		key := strings.TrimSpace(line[:eq])
		if key == "" {
			return nil, fmt.Errorf("%s:%d: empty key", name, ln)
		}
		if _, dup := cur.Keys[key]; dup {
			return nil, fmt.Errorf("%s:%d: duplicate key %q in this scenario", name, ln, key)
		}
		v, err := parseValue(strings.TrimSpace(line[eq+1:]))
		if err != nil {
			return nil, fmt.Errorf("%s:%d: key %q: %v", name, ln, key, err)
		}
		v.Line = ln
		cur.Keys[key] = v
	}
	return tables, nil
}

// stripComment removes a # comment, honouring # inside quoted strings.
func stripComment(line string) string {
	inStr := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '"':
			inStr = !inStr
		case '#':
			if !inStr {
				return line[:i]
			}
		}
	}
	return line
}

// parseValue parses one right-hand side.
func parseValue(s string) (Value, error) {
	switch {
	case s == "":
		return Value{}, fmt.Errorf("empty value")
	case s == "true" || s == "false":
		return Value{Kind: KindBool, Bool: s == "true"}, nil
	case strings.HasPrefix(s, `"`):
		str, err := parseQuoted(s)
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: KindString, Str: str}, nil
	case strings.HasPrefix(s, "["):
		if !strings.HasSuffix(s, "]") {
			return Value{}, fmt.Errorf("unterminated array %q", s)
		}
		inner := strings.TrimSpace(s[1 : len(s)-1])
		var strs []string
		if inner != "" {
			for _, part := range splitArray(inner) {
				part = strings.TrimSpace(part)
				str, err := parseQuoted(part)
				if err != nil {
					return Value{}, fmt.Errorf("array element %q: %v", part, err)
				}
				strs = append(strs, str)
			}
		}
		return Value{Kind: KindStrings, Strs: strs}, nil
	case strings.ContainsAny(s, ".eE") && !strings.HasPrefix(s, "0x"):
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, fmt.Errorf("bad float %q", s)
		}
		return Value{Kind: KindFloat, F: f}, nil
	default:
		n, err := strconv.ParseInt(s, 0, 64)
		if err != nil {
			return Value{}, fmt.Errorf("bad value %q (expected string, number, bool, or array)", s)
		}
		return Value{Kind: KindInt, Int: n}, nil
	}
}

func parseQuoted(s string) (string, error) {
	if len(s) < 2 || !strings.HasPrefix(s, `"`) || !strings.HasSuffix(s, `"`) {
		return "", fmt.Errorf("expected quoted string, got %q", s)
	}
	inner := s[1 : len(s)-1]
	if strings.Contains(inner, `"`) {
		return "", fmt.Errorf("stray quote inside %q", s)
	}
	return inner, nil
}

// splitArray splits a comma-separated list, honouring quotes.
func splitArray(s string) []string {
	var parts []string
	inStr := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case ',':
			if !inStr {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	parts = append(parts, s[start:])
	return parts
}

// field reads one typed key out of a table, deleting it from the
// remaining-keys set so unknown keys can be reported afterwards.
type field struct {
	tab  *Table
	name string // config name for errors
	left map[string]int
	errs *[]string
}

func (f *field) take(key string, kind ValueKind) (Value, bool) {
	v, ok := f.tab.Keys[key]
	if !ok {
		return Value{}, false
	}
	delete(f.left, key)
	if v.Kind != kind {
		// Ints are acceptable where floats are expected.
		if kind == KindFloat && v.Kind == KindInt {
			v.Kind, v.F = KindFloat, float64(v.Int)
			return v, true
		}
		*f.errs = append(*f.errs, fmt.Sprintf("%s:%d: key %q: got %s, want %s", f.name, v.Line, key, v.Kind, kind))
		return Value{}, false
	}
	return v, true
}

func (f *field) str(key, def string) string {
	if v, ok := f.take(key, KindString); ok {
		return v.Str
	}
	return def
}

func (f *field) integer(key string, def int) int {
	if v, ok := f.take(key, KindInt); ok {
		return int(v.Int)
	}
	return def
}

func (f *field) float(key string, def float64) float64 {
	if v, ok := f.take(key, KindFloat); ok {
		return v.F
	}
	return def
}

func (f *field) boolean(key string, def bool) bool {
	if v, ok := f.take(key, KindBool); ok {
		return v.Bool
	}
	return def
}

func (f *field) strings(key string) []string {
	if v, ok := f.take(key, KindStrings); ok {
		return v.Strs
	}
	return nil
}

// errf records a validation error anchored at the line of key (falling
// back to the section header when the key is absent).
func (f *field) errf(key, format string, args ...any) {
	ln := f.tab.Line
	if v, ok := f.tab.Keys[key]; ok {
		ln = v.Line
	}
	*f.errs = append(*f.errs, fmt.Sprintf("%s:%d: %s", f.name, ln, fmt.Sprintf(format, args...)))
}

// ParseScenarios parses and validates a suite config. Every scenario
// must name a seed explicitly — a trajectory whose workloads drift
// because a default seed changed is worse than no trajectory — and
// unknown keys or contradictory knob combinations are errors with the
// offending line attached.
func ParseScenarios(name, src string) ([]Scenario, error) {
	tables, err := parseConfig(name, src)
	if err != nil {
		return nil, err
	}
	var errs []string
	var scenarios []Scenario
	seen := map[string]int{}
	for i := range tables {
		tab := &tables[i]
		left := map[string]int{}
		for k, v := range tab.Keys {
			left[k] = v.Line
		}
		f := &field{tab: tab, name: name, left: left, errs: &errs}
		sc := scenarioFromTable(f)
		if prev, dup := seen[sc.Name]; dup && sc.Name != "" {
			f.errf("name", "scenario %q already defined at line %d", sc.Name, prev)
		} else if sc.Name != "" {
			seen[sc.Name] = tab.Line
		}
		// Unknown keys, reported in line order for stable output.
		var unknown []string
		for k := range left {
			unknown = append(unknown, k)
		}
		sort.Slice(unknown, func(a, b int) bool { return left[unknown[a]] < left[unknown[b]] })
		for _, k := range unknown {
			errs = append(errs, fmt.Sprintf("%s:%d: unknown key %q", name, left[k], k))
		}
		scenarios = append(scenarios, sc)
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("suite config:\n  %s", strings.Join(errs, "\n  "))
	}
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("suite config %s: no [[scenario]] sections", name)
	}
	return scenarios, nil
}
