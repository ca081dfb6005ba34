package suite

// The paper's evaluation (Section 6, Figs. 11–16) and this
// reproduction's ablations, as one table over the harness: a figure is
// a row of figureTable — labels, series (a label and a base Scenario),
// the x values, how x lands in the scenario, which counters are y and
// Extra — and Session.Figure is the one loop that executes a row,
// every point through Session.Run. cmd/asmbench prints figures,
// cmd/asmserve loops one as background load, and the root bench_test.go
// wraps each in a testing.B; all three look ids up here.

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"revelation/internal/assembly"
	"revelation/internal/gen"
)

// Series is one labelled line of a figure. The JSON tags define the
// asmbench -json schema; field order is the struct order and is part of
// the golden-tested contract — append new fields at the end.
type Series struct {
	Label string    `json:"label"`
	X     []float64 `json:"x"`
	Y     []float64 `json:"y"`
	// Extra carries a secondary metric per point (e.g. total reads)
	// when a figure's discussion references one; may be nil.
	Extra []float64 `json:"extra,omitempty"`
}

// Figure is a reproduced paper figure: a set of series over a shared
// x-axis.
type Figure struct {
	ID     string   `json:"id"`
	Title  string   `json:"title"`
	XLabel string   `json:"x_label"`
	YLabel string   `json:"y_label"`
	Series []Series `json:"series"`
	Notes  []string `json:"notes,omitempty"`
}

// Table renders the figure as an aligned text table (x down the rows,
// one column per series).
func (f Figure) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%-14s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%22s", s.Label)
	}
	b.WriteString("\n")
	if len(f.Series) > 0 {
		for i := range f.Series[0].X {
			fmt.Fprintf(&b, "%-14.0f", f.Series[0].X[i])
			for _, s := range f.Series {
				if i < len(s.Y) {
					fmt.Fprintf(&b, "%22.1f", s.Y[i])
				} else {
					fmt.Fprintf(&b, "%22s", "-")
				}
			}
			b.WriteString("\n")
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	fmt.Fprintf(&b, "  (y: %s)\n", f.YLabel)
	return b.String()
}

// FiguresJSON renders figures as deterministic, indented JSON: field
// order follows the struct declarations and a seeded run produces the
// same bytes every time, which is what the golden-file test pins down.
func FiguresJSON(figs []Figure) ([]byte, error) {
	out, err := json.MarshalIndent(figs, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// scaled shrinks a paper-scale size for quick runs; 1.0 is paper scale.
// Sizes never drop below 50 complex objects.
func scaled(size int, scale float64) int {
	n := int(float64(size) * scale)
	if n < 50 {
		n = 50
	}
	return n
}

const figureSeed = 91 // fixed seed: the experiments are deterministic

// FigureParams is what a figure run takes from its caller.
type FigureParams struct {
	// Scale shrinks database sizes (1.0 = the paper's 1000–4000).
	Scale float64
	// Faults parameterises the 'faults' figure, Concurrency the
	// 'concurrency' figure; the others ignore them.
	Faults      FaultOptions
	Concurrency ConcurrencyOptions
}

// FaultOptions parameterises the fault-tolerance sweep.
type FaultOptions struct {
	// Seed drives the deterministic injector.
	Seed int64
	// Transient is the sweep's maximum transient-fault rate (fraction
	// of page reads); points run at 0, ¼, ½, and 1 times it.
	Transient float64
	// Permanent is the maximum permanent-fault rate, swept in the same
	// proportions.
	Permanent float64
}

// DefaultFaultOptions is the sweep cmd/asmbench runs when no fault
// flags are given: up to 10% transient and 0.5% permanent faults.
var DefaultFaultOptions = FaultOptions{Seed: figureSeed, Transient: 0.10, Permanent: 0.005}

// metric reads one plotted value out of a measured point.
type metric func(sc Scenario, r Result) float64

func avgSeek(_ Scenario, r Result) float64 { return r.Dev.AvgSeekPerRead() }
func reads(_ Scenario, r Result) float64   { return float64(r.Dev.Reads) }

// seriesDef is one line of a figure: tune (when non-nil) turns the
// figure's base scenario into the series'. A series with bound set is
// computed from x alone and measures nothing.
type seriesDef struct {
	label string
	tune  func(*Scenario)
	bound func(x float64) float64
}

// figureDef is one row of the table: a point is base, tuned by its
// series, with x applied by set, measured by one Session.Run. The
// embedded Figure carries the labels; sweep fills in its Series.
type figureDef struct {
	Figure
	base   Scenario
	series []seriesDef
	xs     []float64
	// set applies x to the point's scenario and returns the x the
	// figure reports.
	set func(sc *Scenario, x float64) float64
	// y is the plotted counter; extra, when non-nil, fills the Extra
	// channel.
	y, extra metric
	// wallClock, when non-nil, replaces the sweep: the figure measures
	// throughput with its own loop, so its output is not deterministic
	// and AllFigures leaves it out.
	wallClock func(s *Session, p FigureParams) (Figure, error)
}

// figureTable is every figure the harness can regenerate, in the order
// 'all' prints them. Sizes are written at paper scale through n, so a
// row reads like the paper's caption.
func figureTable(p FigureParams) []figureDef {
	n := func(size int) int { return scaled(size, p.Scale) }
	const seekY = "average seek distance per read (pages)"
	sizes := []float64{1000, 2000, 3000, 4000}
	bySize := func(sc *Scenario, x float64) float64 {
		sc.Objects = n(int(x))
		return float64(sc.Objects)
	}
	byWindow := func(sc *Scenario, x float64) float64 {
		sc.Window = int(x)
		return x
	}
	var schedulers, clusterings, buffers []seriesDef
	for _, k := range []assembly.SchedulerKind{assembly.BreadthFirst, assembly.DepthFirst, assembly.Elevator} {
		schedulers = append(schedulers, seriesDef{label: k.String(), tune: func(sc *Scenario) { sc.Scheduler = k }})
	}
	for _, cl := range []gen.Clustering{gen.InterObject, gen.IntraObject, gen.Unclustered} {
		clusterings = append(clusterings, seriesDef{label: cl.String(), tune: func(sc *Scenario) { sc.Clustering = cl }})
	}
	for _, pages := range []int{64, 128, 256, 512} {
		buffers = append(buffers, seriesDef{label: fmt.Sprintf("buffer=%d", pages), tune: func(sc *Scenario) { sc.BufferPgs = pages }})
	}
	// policies is the paper's three-way comparison: object-at-a-time
	// against the elevator at windows 1 and 50, the elevator series with
	// the figure's feature switched on.
	policies := func(naive string, feature func(*Scenario)) []seriesDef {
		elevator := func(w int) seriesDef {
			return seriesDef{label: fmt.Sprintf("elevator w=%d", w), tune: func(sc *Scenario) {
				sc.Scheduler, sc.Window = assembly.Elevator, w
				feature(sc)
			}}
		}
		return []seriesDef{
			{label: naive, tune: func(sc *Scenario) { sc.Scheduler, sc.Window = assembly.DepthFirst, 1 }},
			elevator(1), elevator(50),
		}
	}

	var defs []figureDef

	// Figures 11(A–C) and 13(A–C): scheduling algorithm versus database
	// size at window 1 and 50, per clustering policy.
	for _, w := range []struct{ num, window int }{{11, 1}, {13, 50}} {
		for _, c := range []struct {
			sub   byte
			cl    gen.Clustering
			title string
		}{
			{'a', gen.InterObject, "Inter-Object Clustering"},
			{'b', gen.IntraObject, "Intra-Object Clustering"},
			{'c', gen.Unclustered, "Unclustered"},
		} {
			defs = append(defs, figureDef{
				Figure: Figure{
					ID:     fmt.Sprintf("fig%d%c", w.num, c.sub),
					Title:  fmt.Sprintf("Window Size = %d, %s", w.window, c.title),
					XLabel: "complex objs",
					YLabel: seekY,
				},
				base:   Scenario{Clustering: c.cl, Window: w.window},
				series: schedulers,
				xs:     sizes, set: bySize, y: avgSeek, extra: reads,
			})
		}
	}

	// The faults sweep's rates: negative means none, none at all means
	// the defaults.
	fo := p.Faults
	fo.Transient, fo.Permanent = max(fo.Transient, 0), max(fo.Permanent, 0)
	if fo.Transient == 0 && fo.Permanent == 0 {
		fo.Transient, fo.Permanent = DefaultFaultOptions.Transient, DefaultFaultOptions.Permanent
	}

	return append(defs,
		// Figure 14: window size versus seek distance, elevator, largest
		// database, one series per clustering policy.
		figureDef{
			Figure: Figure{
				ID:     "fig14",
				Title:  "Database Size = 4000, Elevator Scheduling",
				XLabel: "window size",
				YLabel: seekY,
			},
			base:   Scenario{Objects: n(4000), Scheduler: assembly.Elevator},
			series: clusterings,
			xs:     []float64{1, 50, 100, 150, 200}, set: byWindow, y: avgSeek,
		},
		// Figure 15: shared sub-objects (degree 0.25, inter-object
		// clustering). Extra carries total reads, since the paper notes
		// sharing statistics also "reduce the total number of reads".
		// The buffer is restricted: a pool that holds the whole database
		// never flushes a shared page, and the statistics would have
		// nothing to save.
		figureDef{
			Figure: Figure{
				ID:     "fig15",
				Title:  "Degree of Sharing = 25%",
				XLabel: "complex objs",
				YLabel: seekY,
				Notes: []string{
					"elevator series use sharing statistics; depth-first is object-at-a-time",
					fmt.Sprintf("buffer restricted to %d pages", n(256)),
				},
			},
			base:   Scenario{Clustering: gen.InterObject, Sharing: 0.25, BufferPgs: n(256)},
			series: policies("depth-first", func(sc *Scenario) { sc.UseSharingStats = true }),
			xs:     sizes, set: bySize, y: avgSeek, extra: reads,
		},
		// Figure 16: a predicate of the given selectivity on a leaf;
		// selective assembly aborts failing objects early and fetches
		// predicate-relevant components first. Restricted buffer as for
		// Fig. 15: a whole-database pool would absorb the saved fetches
		// as hits.
		figureDef{
			Figure: Figure{
				ID:     "fig16",
				Title:  "Predicates and Selectivities (DB = 4000, unclustered)",
				XLabel: "selectivity %",
				YLabel: seekY,
				Notes:  []string{fmt.Sprintf("buffer restricted to %d pages", n(320))},
			},
			base:   Scenario{Objects: n(4000), BufferPgs: n(320)},
			series: policies("object-at-a-time", func(sc *Scenario) { sc.PredicateFirst = true }),
			xs:     []float64{0.05, 0.10, 0.20, 0.30, 0.40, 0.50},
			set: func(sc *Scenario, x float64) float64 {
				sc.Selectivity = x
				return x * 100
			},
			y: avgSeek, extra: reads,
		},
		// Section 6.3.3's buffer requirement: the peak number of distinct
		// pages backing the window against the paper's bound.
		figureDef{
			Figure: Figure{
				ID:     "footprint",
				Title:  "Window buffer footprint (Section 6.3.3)",
				XLabel: "window size",
				YLabel: "pages",
			},
			base: Scenario{Objects: n(2000), Scheduler: assembly.Elevator},
			series: []seriesDef{
				{label: "measured peak"},
				{label: "paper bound 6(W-1)+7", bound: func(w float64) float64 { return 6*(w-1) + 7 }},
			},
			xs: []float64{1, 10, 50, 100}, set: byWindow,
			y: func(_ Scenario, r Result) float64 { return float64(r.Stats.PeakWindowPgs) },
		},
		// The Section 7 ablation the paper leaves as future work:
		// restricted buffers against window sizes, window pages pinned.
		figureDef{
			Figure: Figure{
				ID:     "buffer-window",
				Title:  "Restricted buffer size vs window size (Section 7 ablation)",
				XLabel: "window size",
				YLabel: "total seek distance (thousands of pages; re-reads included)",
				Notes: []string{
					"a window too large for its buffer evicts and re-reads pages; " +
						"average seek per read would hide that, so this ablation reports totals",
				},
			},
			base:   Scenario{Objects: n(2000), Scheduler: assembly.Elevator, PinWindow: true},
			series: buffers,
			xs:     []float64{1, 25, 50, 100}, set: byWindow,
			y:     func(_ Scenario, r Result) float64 { return float64(r.Dev.SeekReads) / 1000 },
			extra: reads,
		},
		// Section 7's multi-device exploration: the same database striped
		// over 1–8 devices, under the global elevator and under one
		// elevator per device. y is the aggregate seek across all arms
		// per read: striping divides each arm's travel, and the per-device
		// scheduler holds the total while giving every arm its own queue.
		figureDef{
			Figure: Figure{
				ID:     "multi-device",
				Title:  "Striped devices (Section 7): global vs per-device elevator",
				XLabel: "devices",
				YLabel: "aggregate average seek distance per read (pages)",
			},
			base: Scenario{Objects: n(2000), Scheduler: assembly.Elevator, Window: 50},
			series: []seriesDef{
				{label: "global elevator"},
				{label: "multi-elevator", tune: func(sc *Scenario) { sc.PerDevice = true }},
			},
			xs: []float64{1, 2, 4, 8},
			set: func(sc *Scenario, x float64) float64 {
				sc.Devices = int(x)
				return x
			},
			y: avgSeek,
		},
		// Section 4's single-buffer-request ablation; footnote 5 is the
		// motivation: "even buffer hits can be expensive, since a table
		// must be searched while protected against concurrent update".
		figureDef{
			Figure: Figure{
				ID:     "page-batch",
				Title:  "Same-page batching (Section 4): buffer requests per 1000 objects",
				XLabel: "clustering",
				YLabel: "buffer requests per 1000 objects fetched",
				Notes:  []string{"x: 0 = unclustered, 1 = inter-object, 2 = intra-object"},
			},
			base: Scenario{Objects: n(2000), Scheduler: assembly.Elevator, Window: 50},
			series: []seriesDef{
				{label: "per-reference requests"},
				{label: "page-batched requests", tune: func(sc *Scenario) { sc.PageBatch = true }},
			},
			xs: []float64{0, 1, 2},
			set: func(sc *Scenario, x float64) float64 {
				sc.Clustering = []gen.Clustering{gen.Unclustered, gen.InterObject, gen.IntraObject}[int(x)]
				return x
			},
			y: func(_ Scenario, r Result) float64 {
				return 1000 * float64(r.Stats.PageRequests) / float64(r.Stats.Fetched)
			},
		},
		// The robustness extension (no paper counterpart): one database
		// under rising fault rates, once per fault policy. Retrying holds
		// the loss to the permanently poisoned objects; skip-on-first-fault
		// loses every object a transient blip touches.
		figureDef{
			Figure: Figure{
				ID:     "faults",
				Title:  "Fault injection vs assembly completion (robustness extension)",
				XLabel: "transient %",
				YLabel: "complex objects assembled (%)",
				Notes: []string{
					fmt.Sprintf("permanent-fault rate swept proportionally up to %.2f%%; injector seed %d", 100*fo.Permanent, fo.Seed),
					"extra channel: operator fault retries (retry series), quarantined objects (skip series)",
				},
			},
			base: Scenario{Objects: n(1000), Scheduler: assembly.Elevator, Window: 50, FaultSeed: fo.Seed},
			series: []seriesDef{
				{label: "retry", tune: func(sc *Scenario) { sc.FaultPolicy = assembly.RetryFaults }},
				{label: "skip-object", tune: func(sc *Scenario) { sc.FaultPolicy = assembly.SkipObject }},
			},
			xs: []float64{0, 0.25, 0.5, 1},
			set: func(sc *Scenario, f float64) float64 {
				sc.FaultTransient, sc.FaultPermanent = f*fo.Transient, f*fo.Permanent
				return 100 * f * fo.Transient
			},
			y: func(sc Scenario, r Result) float64 {
				return 100 * float64(r.Stats.Assembled) / float64(sc.Objects)
			},
			extra: func(sc Scenario, r Result) float64 {
				if sc.FaultPolicy == assembly.RetryFaults {
					return float64(r.Stats.FaultRetries)
				}
				return float64(r.Stats.Skipped)
			},
		},
		figureDef{Figure: Figure{ID: "concurrency"}, wallClock: (*Session).figConcurrency},
	)
}

// FigureIDs lists every figure id, in the order 'all' runs them (the
// wall-clock 'concurrency' figure, which 'all' skips, comes last).
func FigureIDs() []string {
	var ids []string
	for _, d := range figureTable(FigureParams{}) {
		ids = append(ids, d.ID)
	}
	return ids
}

// CheckFigure reports whether id names a figure, with the known ids in
// the error when it does not.
func CheckFigure(id string) error {
	ids := FigureIDs()
	if slices.Contains(ids, id) {
		return nil
	}
	return fmt.Errorf("unknown figure %q (known: %s)", id, strings.Join(ids, ", "))
}

// Figure regenerates one figure by id.
func (s *Session) Figure(id string, p FigureParams) (Figure, error) {
	for _, d := range figureTable(p) {
		if d.ID == id {
			return s.sweep(d, p)
		}
	}
	return Figure{}, CheckFigure(id)
}

// sweep executes one row of the table: every point of every series is
// one cold Session.Run, databases shared between the points that
// generate the same one.
func (s *Session) sweep(d figureDef, p FigureParams) (Figure, error) {
	if d.wallClock != nil {
		return d.wallClock(s, p)
	}
	fig := d.Figure
	for _, sd := range d.series {
		out := Series{Label: sd.label}
		for _, x := range d.xs {
			sc := d.base
			sc.Seed = figureSeed
			if sd.tune != nil {
				sd.tune(&sc)
			}
			shown := d.set(&sc, x)
			out.X = append(out.X, shown)
			if sd.bound != nil {
				out.Y = append(out.Y, sd.bound(x))
				continue
			}
			sc.Name = fmt.Sprintf("%s/%s/%g", d.ID, sd.label, shown)
			res, err := s.Run(sc)
			if err != nil {
				return Figure{}, fmt.Errorf("%s: %w", sc.Name, err)
			}
			out.Y = append(out.Y, d.y(sc, res))
			if d.extra != nil {
				out.Extra = append(out.Extra, d.extra(sc, res))
			}
		}
		fig.Series = append(fig.Series, out)
	}
	return fig, nil
}

// AllFigures regenerates every deterministic figure.
func (s *Session) AllFigures(p FigureParams) ([]Figure, error) {
	var out []Figure
	for _, d := range figureTable(p) {
		if d.wallClock != nil {
			continue
		}
		fig, err := s.sweep(d, p)
		if err != nil {
			return nil, err
		}
		out = append(out, fig)
	}
	return out, nil
}
