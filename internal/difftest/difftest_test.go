package difftest

import (
	"flag"
	"fmt"
	"runtime"
	"testing"
)

// recorder stands in for the test a walk reports to: it keeps the
// failure and ends the walk's goroutine, as Fatalf does.
type recorder struct {
	testing.TB
	report string
}

func (r *recorder) Helper() {}

func (r *recorder) Fatalf(format string, args ...any) {
	r.report = fmt.Sprintf(format, args...)
	runtime.Goexit()
}

// A divergence planted at a chosen seed and step (here before the first
// step), or a panic there, is reported as exactly that seed and step
// with the sequence's tag, and the walk runs no seed after it. Without
// one, every seed runs once, in order.
func TestWalkReportsSeedAndStep(t *testing.T) {
	for _, c := range []struct {
		seed, step int
		panics     bool
		want       string
	}{{9, -1, false, "seed 9 step -1, 9 frames: planted"}, {11, 2, true, "seed 11 step 2, 11 frames: panic: planted\n"}, {-1, 0, false, ""}} {
		var r recorder
		next, done := int64(1), make(chan struct{})
		go func() {
			defer close(done)
			Walk(&r, 1, 20, func(s *Seq) {
				if s.Seed != next {
					t.Errorf("seed %d ran after seed %d", s.Seed, next-1)
				}
				next++
				s.Tag = fmt.Sprintf("%d frames", s.Seed)
				for ; s.Step < 3; s.Step++ { // from -1, before the first step
					if s.Seed == int64(c.seed) && s.Step == c.step {
						if c.panics {
							panic("planted")
						}
						s.Fatalf("planted")
					}
				}
			})
		}()
		<-done
		last, got := int64(c.seed), r.report
		if c.seed < 0 {
			last = 20
		}
		if c.panics {
			got = got[:min(len(got), len(c.want))] // then the stack
		}
		if got != c.want || next != last+1 {
			t.Errorf("planted at seed %d step %d: report %q after seed %d; want %q after seed %d", c.seed, c.step, r.report, next-1, c.want, last)
		}
	}
}

// The full count by default and the reduced one under -short; under the
// race detector (make race runs this package) the reduced one both
// ways.
func TestCountRule(t *testing.T) {
	defer flag.Set("test.short", fmt.Sprint(testing.Short()))
	for _, short := range []bool{false, true} {
		flag.Set("test.short", fmt.Sprint(short))
		want := 10000
		if short || Race {
			want = 400
		}
		if got := Count(10000, 400); got != want {
			t.Errorf("-short %v, race %v: %d sequences, want %d", short, Race, got, want)
		}
	}
}
