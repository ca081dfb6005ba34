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
	"revelation/internal/volcano"
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

// BenchmarkAssemblyVsPointerJoin compares the assembly operator to the
// related-work baseline: a pointer join per reference level (naive and
// TID-sorted), assembling two-level complex objects.
func BenchmarkAssemblyVsPointerJoin(b *testing.B) {
	db, err := gen.Build(gen.Config{NumComplexObjects: 1000, Clustering: gen.Unclustered, Seed: 23})
	if err != nil {
		b.Fatal(err)
	}
	roots := make([]volcano.Item, len(db.Roots))
	for i, r := range db.Roots {
		roots[i] = r
	}
	// Two-level template: root + its two children.
	tmpl := db.Template.Clone()
	tmpl.Children[0].Children = nil
	tmpl.Children[1].Children = nil

	cold := func() {
		if err := db.Pool.EvictAll(); err != nil {
			b.Fatal(err)
		}
		db.Device.ResetStats()
		db.Device.ResetHead()
	}
	var asmSeek, naiveSeek, sortedSeek float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cold()
		op := assembly.New(volcano.NewSlice(roots), db.Store, tmpl,
			assembly.Options{Window: 50, Scheduler: assembly.Elevator})
		if _, err := volcano.Count(op); err != nil {
			b.Fatal(err)
		}
		asmSeek = db.Device.Stats().AvgSeekPerRead()

		for _, mode := range []volcano.PointerJoinMode{volcano.NaivePointer, volcano.SortedPointer} {
			cold()
			// Join root objects to child 0, then parents to child 1 —
			// the n-way pointer join the paper contrasts with
			// assembly (Section 4: "a pointer join would require at
			// least one input to be completely scanned before
			// producing a single result").
			var rootObjs []volcano.Item
			for _, r := range db.Roots {
				o, err := db.Store.Get(r)
				if err != nil {
					b.Fatal(err)
				}
				rootObjs = append(rootObjs, o)
			}
			j0 := volcano.NewPointerJoin(volcano.NewSlice(rootObjs), db.Store, 0, mode)
			left, err := volcano.Drain(j0)
			if err != nil {
				b.Fatal(err)
			}
			var parents []volcano.Item
			for _, p := range left {
				parents = append(parents, p.(volcano.Pair).Left)
			}
			j1 := volcano.NewPointerJoin(volcano.NewSlice(parents), db.Store, 1, mode)
			if _, err := volcano.Count(j1); err != nil {
				b.Fatal(err)
			}
			if mode == volcano.NaivePointer {
				naiveSeek = db.Device.Stats().AvgSeekPerRead()
			} else {
				sortedSeek = db.Device.Stats().AvgSeekPerRead()
			}
		}
	}
	b.ReportMetric(asmSeek, "assembly_seek/read")
	b.ReportMetric(naiveSeek, "naive_ptrjoin_seek/read")
	b.ReportMetric(sortedSeek, "sorted_ptrjoin_seek/read")
}
