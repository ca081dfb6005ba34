package suite

import (
	"slices"
	"testing"
)

// checkFidelity holds the paper-scale figures to the paper's claims
// that EXPERIMENTS.md "Summary of fidelity" lists. A claim that fails
// here is a deviation to report, not a bound to loosen.
func checkFidelity(t *testing.T, figs []Figure) {
	t.Helper()
	series := func(id, label string) Series {
		t.Helper()
		for _, f := range figs {
			for _, s := range f.Series {
				if f.ID == id && s.Label == label {
					return s
				}
			}
		}
		t.Fatalf("no series %q in %s", label, id)
		return Series{}
	}

	// Fig. 13: at W = 50 the elevator seeks least under every clustering.
	for _, id := range []string{"fig13a", "fig13b", "fig13c"} {
		elev := series(id, "elevator")
		for _, label := range []string{"breadth-first", "depth-first"} {
			other := series(id, label)
			for i, x := range elev.X {
				if elev.Y[i] >= other.Y[i] {
					t.Errorf("%s, %.0f objects: elevator %.1f, %s %.1f pages a read", id, x, elev.Y[i], label, other.Y[i])
				}
			}
		}
	}

	// Fig. 11C: unclustered at W = 1, the elevator seeks about 10 % less
	// than either other policy (5 to 15 %).
	elev := series("fig11c", "elevator")
	for _, label := range []string{"breadth-first", "depth-first"} {
		other := series("fig11c", label)
		for i, x := range elev.X {
			if cut := 1 - elev.Y[i]/other.Y[i]; cut < 0.05 || cut > 0.15 {
				t.Errorf("fig11c, %.0f objects: elevator %.1f is %.1f %% below %s %.1f, want about 10 %%",
					x, elev.Y[i], 100*cut, label, other.Y[i])
			}
		}
	}

	// Section 6.3.3: a window of W complex objects keeps at most
	// 6(W-1)+7 pages — exactly 7 at W = 1, at most 301 at W = 50.
	fp := series("footprint", "measured peak")
	if !slices.Contains(fp.X, 1) || !slices.Contains(fp.X, 50) {
		t.Errorf("footprint windows %v lack 1 or 50", fp.X)
	}
	for i, w := range fp.X {
		if bound := 6*(w-1) + 7; fp.Y[i] > bound || w == 1 && fp.Y[i] != bound {
			t.Errorf("footprint at W = %.0f: %.0f pages, paper bound %.0f", w, fp.Y[i], bound)
		}
	}

	// Fig. 14: diminishing returns before W = 50. Under every clustering
	// the seek falls as the window grows, and W = 50 already has 90 % of
	// the drop the largest window reaches.
	for _, label := range []string{"inter-object", "intra-object", "unclustered"} {
		s := series("fig14", label)
		at50 := slices.Index(s.X, 50)
		if s.X[0] != 1 || at50 < 0 {
			t.Fatalf("fig14 windows %v lack 1 or 50", s.X)
		}
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] >= s.Y[i-1] {
				t.Errorf("fig14 %s: W = %.0f seeks %.1f, W = %.0f %.1f", label, s.X[i], s.Y[i], s.X[i-1], s.Y[i-1])
			}
		}
		first, last := s.Y[0], s.Y[len(s.Y)-1]
		if share := (first - s.Y[at50]) / (first - last); share < 0.9 {
			t.Errorf("fig14 %s: W = 50 has %.0f %% of the drop to W = %.0f, want at least 90 %%", label, 100*share, s.X[len(s.X)-1])
		}
	}

	// Fig. 15, as totals: with the sharing statistics the elevator reads
	// fewer pages and seeks no further in all, at every size, W = 1 and
	// W = 50.
	for _, label := range []string{"elevator w=1", "elevator w=50"} {
		on, off := series("fig15", label), series("fig15", label+" no stats")
		for i, x := range on.X {
			if on.Extra[i] >= off.Extra[i] || on.TotalSeek[i] > off.TotalSeek[i] {
				t.Errorf("fig15 %s, %.0f objects: %.0f reads and %.0f pages of seek with statistics, %.0f and %.0f without",
					label, x, on.Extra[i], on.TotalSeek[i], off.Extra[i], off.TotalSeek[i])
			}
		}
	}
}
