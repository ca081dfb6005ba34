// Package difftest is the seed walk of the differential tests, each of
// which drives a kept reference model and the code that replaced it
// through the same seeded sequences of steps and fails at the first
// step where they part. It owns how many sequences a run walks, the
// race-detector flag, the walk and the report naming the seed and the
// step; each test keeps its own sequences, drawn from its own RNG
// seeded with the walk's seed. It imports only the standard library, so
// any package's in-package tests can use it.
package difftest

import (
	"fmt"
	"runtime/debug"
	"testing"
)

// Race is true when the race detector is on.
const Race = race

// Count is the number of sequences a walk runs: full by default,
// reduced under -short or the race detector.
func Count(full, reduced int) int {
	if testing.Short() || Race {
		return reduced
	}
	return full
}

// Seq is one sequence of a walk: its seed and the step it is at, which
// the test's loop advances from 0. Step is -1 before the first step and
// where the loop left it after. Tag, when set, names in a report what
// the seed or the step chose (a pool's size, a crash point).
type Seq struct {
	Seed int64
	Step int
	Tag  string
	tb   testing.TB
}

// Fatalf fails the test at the sequence's seed and step, ending the
// walk.
func (s *Seq) Fatalf(format string, args ...any) {
	s.tb.Helper()
	where := fmt.Sprintf("seed %d step %d", s.Seed, s.Step)
	if s.Tag != "" {
		where += ", " + s.Tag
	}
	s.tb.Fatalf("%s: %s", where, fmt.Sprintf(format, args...))
}

// Walk runs seq for each of the n seeds from first on, in order, and
// reports a panic in seq, too, at its seed and step. A test whose
// sequences share no package-level state calls t.Parallel first.
func Walk(tb testing.TB, first int64, n int, seq func(*Seq)) {
	for seed := first; seed < first+int64(n); seed++ {
		s := &Seq{Seed: seed, Step: -1, tb: tb}
		func() {
			defer func() {
				if p := recover(); p != nil {
					s.Fatalf("panic: %v\n%s", p, debug.Stack())
				}
			}()
			seq(s)
		}()
	}
}
