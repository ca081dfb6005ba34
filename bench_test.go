package revelation_test

// One testing.B sub-benchmark per figure the harness can regenerate
// (the paper's Section 6 tables plus this reproduction's ablations),
// listed from the harness's own registry. Each iteration runs the
// figure's full experiment grid at a reduced scale (benchScale) so
// `go test -bench=.` stays responsive; the custom metrics report the
// headline cell of each figure. Paper-scale tables print via
// `go run ./cmd/asmbench -figure all`.

import (
	"strings"
	"testing"

	"revelation/internal/assembly"
	"revelation/internal/gen"
	"revelation/internal/suite"
)

// benchScale shrinks the paper's 1000–4000 complex-object databases to
// 250–1000 for iteration speed; shapes are scale-invariant.
const benchScale = 0.25

func BenchmarkFigure(b *testing.B) {
	params := suite.FigureParams{Scale: benchScale, Faults: suite.DefaultFaultOptions}
	for _, id := range suite.FigureIDs() {
		b.Run(id, func(b *testing.B) {
			var s suite.Session
			defer s.Close()
			var fig suite.Figure
			var err error
			for i := 0; i < b.N; i++ {
				if fig, err = s.Figure(id, params); err != nil {
					b.Fatal(err)
				}
			}
			// Headline: the final y (fig.YLabel) of the first and last series.
			for _, sr := range []suite.Series{fig.Series[0], fig.Series[len(fig.Series)-1]} {
				b.ReportMetric(sr.Y[len(sr.Y)-1], strings.ReplaceAll(sr.Label, " ", "-")+"_y")
			}
		})
	}
}

// BenchmarkPriorityScheduler isolates the Section 7 integrated
// (predicate-first) scheduler against the plain elevator on a
// selective query.
func BenchmarkPriorityScheduler(b *testing.B) {
	var s suite.Session
	defer s.Close()
	base := suite.Scenario{
		Name:        "priority",
		Objects:     1000,
		Clustering:  gen.Unclustered,
		Scheduler:   assembly.Elevator,
		Window:      50,
		Selectivity: 0.10,
		BufferPgs:   96,
		Seed:        17,
	}
	var plain, prio suite.Result
	var err error
	for i := 0; i < b.N; i++ {
		plain, err = s.Run(base)
		if err != nil {
			b.Fatal(err)
		}
		withPrio := base
		withPrio.PredicateFirst = true
		prio, err = s.Run(withPrio)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(plain.Stats.Fetched), "plain_fetches")
	b.ReportMetric(float64(prio.Stats.Fetched), "predfirst_fetches")
}
