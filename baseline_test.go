package revelation_test

import (
	"testing"

	"revelation/internal/assembly"
	"revelation/internal/disk"
	"revelation/internal/gen"
	"revelation/internal/volcano"
)

// TestPointerJoinBaseline pins the paper's Section 4 claim against the
// related-work baseline: assembling two-level complex objects (a root
// and its two children) over an unclustered database costs far shorter
// seeks than a pointer join per reference level, naive or TID-sorted
// ("a pointer join would require at least one input to be completely
// scanned before producing a single result"). Each plan runs on a cold
// pool with the head at page 0; seek counts are deterministic at equal
// seed, so the device counters are pinned exactly.
func TestPointerJoinBaseline(t *testing.T) {
	db, err := gen.Build(gen.Config{NumComplexObjects: 1000, Clustering: gen.Unclustered, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	tmpl := db.Template.Clone()
	tmpl.Children[0].Children = nil
	tmpl.Children[1].Children = nil

	cold := func() {
		if err := db.Pool.EvictAll(); err != nil {
			t.Fatal(err)
		}
		db.Device.ResetStats()
		db.Device.ResetHead()
	}

	cold()
	op := assembly.New(volcano.FromOIDs(db.Roots), db.Store, tmpl,
		assembly.Options{Window: 50, Scheduler: assembly.Elevator})
	if _, err := volcano.Count(op); err != nil {
		t.Fatal(err)
	}
	asm := db.Device.Stats()

	// Join the roots to child 0, then those parents to child 1: the
	// n-way pointer join the paper contrasts with assembly.
	pointerJoin := func(mode volcano.PointerJoinMode) disk.Stats {
		cold()
		roots := make([]volcano.Item, len(db.Roots))
		for i, r := range db.Roots {
			o, err := db.Store.Get(r)
			if err != nil {
				t.Fatal(err)
			}
			roots[i] = o
		}
		pairs, err := volcano.Drain(nil, volcano.NewPointerJoin(volcano.NewSlice(roots), db.Store, 0, mode))
		if err != nil {
			t.Fatal(err)
		}
		parents := make([]volcano.Item, len(pairs))
		for i, p := range pairs {
			parents[i] = p.(volcano.Pair).Left
		}
		if _, err := volcano.Count(volcano.NewPointerJoin(volcano.NewSlice(parents), db.Store, 1, mode)); err != nil {
			t.Fatal(err)
		}
		return db.Device.Stats()
	}
	naive := pointerJoin(volcano.NaivePointer)
	sorted := pointerJoin(volcano.SortedPointer)

	for _, c := range []struct {
		name             string
		got              disk.Stats
		reads, seekReads int64
	}{
		{"assembly", asm, 775, 20044},                // 25.86 pages/read
		{"naive pointer join", naive, 775, 202227},   // 260.94
		{"sorted pointer join", sorted, 775, 158910}, // 205.05
	} {
		if c.got.Reads != c.reads || c.got.SeekReads != c.seekReads {
			t.Errorf("%s: %d reads over %d seek pages (%.2f pages/read), want %d over %d",
				c.name, c.got.Reads, c.got.SeekReads, c.got.AvgSeekPerRead(), c.reads, c.seekReads)
		}
	}
	if a, s, n := asm.AvgSeekPerRead(), sorted.AvgSeekPerRead(), naive.AvgSeekPerRead(); !(a < s && s < n) {
		t.Errorf("seek per read: assembly %.2f, sorted %.2f, naive %.2f; want assembly < sorted < naive", a, s, n)
	}
}
