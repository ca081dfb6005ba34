package suite

import (
	"strings"
	"testing"

	"revelation/internal/assembly"
	"revelation/internal/disk"
	"revelation/internal/gen"
	"revelation/internal/object"
)

// Shape tests: small-scale versions of the paper's figures must show
// the paper's qualitative results. Absolute numbers differ (simulated
// substrate, scaled databases); the winners and orderings must not.

func TestRunBasics(t *testing.T) {
	var s Session
	res, err := s.Run(Scenario{
		Name: "smoke", Objects: 200, Clustering: gen.Unclustered,
		Scheduler: assembly.Elevator, Window: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Assembled != 200 {
		t.Errorf("assembled %d", res.Stats.Assembled)
	}
	if res.Dev.Reads == 0 || res.Dev.AvgSeekPerRead() <= 0 {
		t.Errorf("no I/O measured: %+v", res)
	}
}

func TestRunIsColdEachTime(t *testing.T) {
	var s Session
	e := Scenario{Name: "cold", Objects: 150, Scheduler: assembly.Elevator, Window: 5, Seed: 2}
	a, err := s.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if a.Dev.Reads != b.Dev.Reads || a.Dev.SeekReads != b.Dev.SeekReads {
		t.Errorf("runs not reproducible: %d/%d vs %d/%d reads/seeks",
			a.Dev.Reads, a.Dev.SeekReads, b.Dev.Reads, b.Dev.SeekReads)
	}
}

func TestNaiveMatchesDepthFirstWindow1(t *testing.T) {
	var s Session
	e := Scenario{Name: "naive", Objects: 200, Clustering: gen.Unclustered,
		Scheduler: assembly.DepthFirst, Window: 1, Seed: 3}
	viaOp, err := s.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	built, err := s.env(e.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	naive, err := runNaive(built.db)
	if err != nil {
		t.Fatal(err)
	}
	if viaOp.Dev.Reads != naive.Reads {
		t.Errorf("depth-first W=1 reads %d, naive traversal %d — should match", viaOp.Dev.Reads, naive.Reads)
	}
	if viaOp.Dev.SeekReads != naive.SeekReads {
		t.Errorf("depth-first W=1 seeks %d, naive %d", viaOp.Dev.SeekReads, naive.SeekReads)
	}
}

// runNaive assembles object-at-a-time without the assembly operator at
// all: a plain recursive traversal per complex object, the baseline the
// paper's introduction criticizes. It is the reference model that
// confirms depth-first window-1 assembly matches true naive traversal
// I/O.
func runNaive(db *gen.Database) (disk.Stats, error) {
	if err := db.Pool.EvictAll(); err != nil {
		return disk.Stats{}, err
	}
	dev0 := db.Device.Stats()
	db.Device.ResetHead()
	var fetch func(oid object.OID) error
	fetch = func(oid object.OID) error {
		if oid.IsNil() {
			return nil
		}
		o, err := db.Store.Get(oid)
		if err != nil {
			return err
		}
		for _, c := range []object.OID{o.Refs[0], o.Refs[1]} {
			if err := fetch(c); err != nil {
				return err
			}
		}
		return nil
	}
	for _, root := range db.Roots {
		if err := fetch(root); err != nil {
			return disk.Stats{}, err
		}
	}
	return db.Device.Stats().Sub(dev0), nil
}

func TestElevatorWinsAtWindow50AllClusterings(t *testing.T) {
	// The Fig. 13 headline: "Regardless of how the data is clustered,
	// average seek distance is smallest for elevator scheduling."
	var s Session
	for _, cl := range []gen.Clustering{gen.Unclustered, gen.InterObject, gen.IntraObject} {
		seeks := map[assembly.SchedulerKind]float64{}
		for _, sched := range []assembly.SchedulerKind{assembly.DepthFirst, assembly.BreadthFirst, assembly.Elevator} {
			res, err := s.Run(Scenario{
				Name: "fig13-shape", Objects: 400, Clustering: cl,
				Scheduler: sched, Window: 50, Seed: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			seeks[sched] = res.Dev.AvgSeekPerRead()
		}
		if seeks[assembly.Elevator] > seeks[assembly.DepthFirst] ||
			seeks[assembly.Elevator] > seeks[assembly.BreadthFirst] {
			t.Errorf("%v: elevator %.1f not smallest (df %.1f, bf %.1f)",
				cl, seeks[assembly.Elevator], seeks[assembly.DepthFirst], seeks[assembly.BreadthFirst])
		}
	}
}

func TestBreadthFirstWorstOnInterObjectWindow1(t *testing.T) {
	// The Fig. 11A artifact: breadth-first fetch order fights the
	// cluster layout.
	var s Session
	seeks := map[assembly.SchedulerKind]float64{}
	for _, sched := range []assembly.SchedulerKind{assembly.DepthFirst, assembly.BreadthFirst, assembly.Elevator} {
		res, err := s.Run(Scenario{
			Name: "fig11a-shape", Objects: 400, Clustering: gen.InterObject,
			Scheduler: sched, Window: 1, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		seeks[sched] = res.Dev.AvgSeekPerRead()
	}
	if seeks[assembly.BreadthFirst] <= seeks[assembly.DepthFirst] {
		t.Errorf("breadth-first %.1f should exceed depth-first %.1f on inter-object clustering",
			seeks[assembly.BreadthFirst], seeks[assembly.DepthFirst])
	}
	if seeks[assembly.Elevator] > seeks[assembly.DepthFirst] {
		t.Errorf("elevator %.1f should not exceed depth-first %.1f", seeks[assembly.Elevator], seeks[assembly.DepthFirst])
	}
}

func TestInterObjectSeekIndependentOfDBSize(t *testing.T) {
	// Fig. 11A's flat lines: regions are larger than any database, so
	// average seek barely moves with database size.
	var s Session
	var seeks []float64
	for _, size := range []int{200, 400, 600} {
		res, err := s.Run(Scenario{
			Name: "fig11a-flat", Objects: size, Clustering: gen.InterObject,
			Scheduler: assembly.DepthFirst, Window: 1, Seed: 6,
		})
		if err != nil {
			t.Fatal(err)
		}
		seeks = append(seeks, res.Dev.AvgSeekPerRead())
	}
	for i := 1; i < len(seeks); i++ {
		ratio := seeks[i] / seeks[0]
		if ratio < 0.8 || ratio > 1.25 {
			t.Errorf("inter-object seek varies with db size: %v", seeks)
		}
	}
}

func TestUnclusteredSeekGrowsWithDBSize(t *testing.T) {
	// Fig. 11C: unclustered seek grows roughly linearly with database
	// size (the file simply gets longer).
	var s Session
	small, err := s.Run(Scenario{Name: "fig11c", Objects: 200, Clustering: gen.Unclustered,
		Scheduler: assembly.DepthFirst, Window: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	large, err := s.Run(Scenario{Name: "fig11c", Objects: 800, Clustering: gen.Unclustered,
		Scheduler: assembly.DepthFirst, Window: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if large.Dev.AvgSeekPerRead() < small.Dev.AvgSeekPerRead()*2 {
		t.Errorf("unclustered seek did not grow with db size: %.1f -> %.1f", small.Dev.AvgSeekPerRead(), large.Dev.AvgSeekPerRead())
	}
}

func TestElevatorGainsDiminishWithWindow(t *testing.T) {
	// Fig. 14: most of the win arrives before W=50.
	var s Session
	seek := func(w int) float64 {
		res, err := s.Run(Scenario{Name: "fig14-shape", Objects: 800,
			Clustering: gen.Unclustered, Scheduler: assembly.Elevator, Window: w, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		return res.Dev.AvgSeekPerRead()
	}
	w1, w50, w200 := seek(1), seek(50), seek(200)
	if w50 >= w1 {
		t.Errorf("window 50 (%.1f) not better than window 1 (%.1f)", w50, w1)
	}
	gainEarly := w1 - w50
	gainLate := w50 - w200
	if gainLate > gainEarly/2 {
		t.Errorf("no diminishing returns: early gain %.1f, late gain %.1f", gainEarly, gainLate)
	}
}

// TestSharingStatsSaveReadsAndSeek: Fig. 15's claim, that sharing
// statistics "reduce the total number of reads". With them the elevator
// reads fewer pages at every size, at W = 1 and at W = 50, and seeks no
// further in total. (Seek per read rises: the reads they save are short
// ones.) Scale 0.2 is the smallest at which this holds at every point:
// at 0.15, W = 1 reads one page more with the statistics at 150 objects.
func TestSharingStatsSaveReadsAndSeek(t *testing.T) {
	var s Session
	fig, err := s.Figure("fig15", FigureParams{Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]Series{}
	for _, sr := range fig.Series {
		series[sr.Label] = sr
	}
	for _, w := range []string{"elevator w=1", "elevator w=50"} {
		on, off := series[w], series[w+" no stats"]
		for i, x := range fig.Series[0].X {
			if on.Extra[i] >= off.Extra[i] || on.TotalSeek[i] > off.TotalSeek[i] {
				t.Errorf("%s, %.0f objects: %.0f reads and %.0f pages of seek with statistics, %.0f and %.0f without",
					w, x, on.Extra[i], on.TotalSeek[i], off.Extra[i], off.TotalSeek[i])
			}
		}
	}
}

func TestSelectiveAssemblySavesIO(t *testing.T) {
	// Fig. 16: with a selective predicate, the assembly operator
	// (window > 1, predicate-first) needs far fewer reads than
	// object-at-a-time, which fully traverses before selecting.
	var s Session
	naive, err := s.Run(Scenario{Name: "fig16-shape", Objects: 400, Clustering: gen.Unclustered,
		Scheduler: assembly.DepthFirst, Window: 1, Selectivity: 0.10, BufferPgs: 48, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	smart, err := s.Run(Scenario{Name: "fig16-shape", Objects: 400, Clustering: gen.Unclustered,
		Scheduler: assembly.Elevator, Window: 50, Selectivity: 0.10, PredicateFirst: true, BufferPgs: 48, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if smart.Dev.Reads >= naive.Dev.Reads {
		t.Errorf("selective assembly reads %d, naive %d", smart.Dev.Reads, naive.Dev.Reads)
	}
	// The deeper savings: object fetches. Naive depth-first visits the
	// predicate leaf last, so failing trees still fetch everything;
	// predicate-first fetches the deciding components first.
	if smart.Stats.Fetched >= naive.Stats.Fetched {
		t.Errorf("selective assembly fetched %d, naive %d", smart.Stats.Fetched, naive.Stats.Fetched)
	}
	if smart.Stats.Assembled != naive.Stats.Assembled {
		t.Errorf("selectivity changed the result: %d vs %d objects", smart.Stats.Assembled, naive.Stats.Assembled)
	}
}

func TestFigureTableRendering(t *testing.T) {
	var s Session
	fig, err := s.Figure("fig11c", FigureParams{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	tbl := fig.Table()
	for _, want := range []string{"fig11c", "elevator", "depth-first", "breadth-first"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
}

func TestWindowFootprintFigure(t *testing.T) {
	var s Session
	fig, err := s.Figure("footprint", FigureParams{Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	measured, bound := fig.Series[0], fig.Series[1]
	for i := range measured.Y {
		// Allow the small slack for completed objects awaiting Next.
		if measured.Y[i] > bound.Y[i]+7 {
			t.Errorf("W=%.0f: footprint %.0f exceeds bound %.0f", measured.X[i], measured.Y[i], bound.Y[i])
		}
	}
}
