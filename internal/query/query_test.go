package query

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"revelation/internal/assembly"
	"revelation/internal/disk"
	"revelation/internal/expr"
	"revelation/internal/gen"
	"revelation/internal/object"
	"revelation/internal/shard"
	"revelation/internal/volcano"
)

func buildDB(t *testing.T, cfg gen.Config) *gen.Database {
	t.Helper()
	db, err := gen.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func oidSet(insts []*assembly.Instance) []uint64 {
	var out []uint64
	for _, in := range insts {
		out = append(out, uint64(in.OID()))
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func TestNaiveAndRevealedAgree(t *testing.T) {
	db := buildDB(t, gen.Config{NumComplexObjects: 300, Clustering: gen.Unclustered, Seed: 71})
	q := &Query{
		Template: db.Template,
		Roots:    db.Roots,
		NodePreds: map[string]expr.Predicate{
			"G": expr.IntCmp{Field: 1, Op: expr.LT, Value: 300, Sel: 0.3},
		},
		// Residual: root rand below leaf D's rand — not algebraically
		// expressible per component.
		Where: func(in *assembly.Instance) bool {
			d := in.Children[0].Children[0]
			return in.Object.Ints[1] < d.Object.Ints[1]
		},
	}
	naive, err := NaiveExec(db.Store, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	revealed, err := RevealExec(db.Store, q, assembly.Options{Window: 25, Scheduler: assembly.Elevator})
	if err != nil {
		t.Fatal(err)
	}
	a, b := oidSet(naive), oidSet(revealed)
	if len(a) != len(b) {
		t.Fatalf("naive %d results, revealed %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result sets differ at %d: %d vs %d", i, a[i], b[i])
		}
	}
	if len(a) == 0 || len(a) == len(db.Roots) {
		t.Fatalf("degenerate selection: %d of %d", len(a), len(db.Roots))
	}
}

func TestRevealedPlanSavesIO(t *testing.T) {
	db := buildDB(t, gen.Config{NumComplexObjects: 500, Clustering: gen.Unclustered, Seed: 72, BufferPages: 64})
	q := &Query{
		Template: db.Template,
		Roots:    db.Roots,
		NodePreds: map[string]expr.Predicate{
			"G": expr.IntCmp{Field: 1, Op: expr.LT, Value: 100, Sel: 0.1},
		},
	}
	if err := db.Pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	db.Device.ResetStats()
	db.Device.ResetHead()
	if _, err := NaiveExec(db.Store, q); err != nil {
		t.Fatal(err)
	}
	naiveStats := db.Device.Stats()

	if err := db.Pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	db.Device.ResetStats()
	db.Device.ResetHead()
	if _, err := RevealExec(db.Store, q, assembly.Options{Window: 50, Scheduler: assembly.Elevator}); err != nil {
		t.Fatal(err)
	}
	revStats := db.Device.Stats()

	if revStats.Reads >= naiveStats.Reads {
		t.Errorf("revealed plan reads %d, naive %d", revStats.Reads, naiveStats.Reads)
	}
	if revStats.AvgSeekPerRead() >= naiveStats.AvgSeekPerRead() {
		t.Errorf("revealed avg seek %.1f, naive %.1f",
			revStats.AvgSeekPerRead(), naiveStats.AvgSeekPerRead())
	}
}

func TestRevealMergesWithExistingPredicate(t *testing.T) {
	db := buildDB(t, gen.Config{NumComplexObjects: 100, Seed: 73})
	tmpl := db.Template.Clone()
	tmpl.FindByName("G").Pred = expr.IntCmp{Field: 1, Op: expr.GE, Value: 100, Sel: 0.9}
	q := &Query{
		Template: tmpl,
		Roots:    db.Roots,
		NodePreds: map[string]expr.Predicate{
			"G": expr.IntCmp{Field: 1, Op: expr.LT, Value: 500, Sel: 0.5},
		},
	}
	out, err := RevealExec(db.Store, q, assembly.Options{Window: 10, Scheduler: assembly.Elevator})
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range out {
		v := inst.Children[1].Children[1].Object.Ints[1]
		if v < 100 || v >= 500 {
			t.Fatalf("conjunction violated: %d", v)
		}
	}
}

func TestQueryValidation(t *testing.T) {
	db := buildDB(t, gen.Config{NumComplexObjects: 10, Seed: 74})
	bad := &Query{Template: db.Template, Roots: db.Roots,
		NodePreds: map[string]expr.Predicate{"nope": expr.True{}}}
	if _, err := NaiveExec(db.Store, bad); err == nil {
		t.Error("unknown component accepted by NaiveExec")
	}
	if _, err := Reveal(db.Store, bad, assembly.Options{}); err == nil {
		t.Error("unknown component accepted by Reveal")
	}
	if _, err := NaiveExec(db.Store, &Query{}); err == nil {
		t.Error("nil template accepted")
	}
}

func TestRevealedPlanExplains(t *testing.T) {
	db := buildDB(t, gen.Config{NumComplexObjects: 10, Seed: 75})
	q := &Query{
		Template:  db.Template,
		Roots:     db.Roots,
		NodePreds: map[string]expr.Predicate{"G": expr.True{}},
		Where:     func(*assembly.Instance) bool { return true },
	}
	plan, err := Reveal(db.Store, q, assembly.Options{Window: 50, Scheduler: assembly.Elevator})
	if err != nil {
		t.Fatal(err)
	}
	out := volcano.Explain(plan)
	for _, want := range []string{"filter", "assembly(predicate-first/elevator, window 50", "slice(10 items)"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan missing %q:\n%s", want, out)
		}
	}
}

// TestRevealOverFleetKeepsItsLanes: a node predicate makes the plan
// predicate-first, but over a router the Elevator keeps a lane per
// shard (what asmquery -shards runs), and the revealed plan returns
// what the naive one does.
func TestRevealOverFleetKeepsItsLanes(t *testing.T) {
	router, err := shard.New(shard.Config{Members: []shard.Member{{Name: "m0", Primary: disk.New(0)}, {Name: "m1", Primary: disk.New(0)}}})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	db := buildDB(t, gen.Config{NumComplexObjects: 40, Seed: 77, BufferPages: 64, Device: router})
	q := &Query{
		Template:  db.Template,
		Roots:     db.Roots,
		NodePreds: map[string]expr.Predicate{"G": expr.IntCmp{Field: 1, Op: expr.LT, Value: 500, Sel: 0.5}},
	}
	opts := assembly.Options{Window: 50, Scheduler: assembly.Elevator}
	plan, err := Reveal(db.Store, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if out := volcano.Explain(plan); !strings.Contains(out, "assembly(shard-elevator(2), window 50") {
		t.Errorf("plan is not the per-shard elevator:\n%s", out)
	}
	revealed, err := RevealExec(db.Store, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NaiveExec(db.Store, q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := oidSet(revealed), oidSet(naive); !slices.Equal(got, want) {
		t.Errorf("revealed %v, naive %v", got, want)
	}
}

func TestNaiveExecDanglingRoot(t *testing.T) {
	db := buildDB(t, gen.Config{NumComplexObjects: 5, Seed: 76})
	q := &Query{Template: db.Template, Roots: []object.OID{424242}}
	if _, err := NaiveExec(db.Store, q); err == nil {
		t.Error("dangling root accepted")
	}
}
