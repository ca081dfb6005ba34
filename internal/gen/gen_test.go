package gen

import (
	"testing"

	"revelation/internal/object"
)

func TestBuildDefaults(t *testing.T) {
	db, err := Build(Config{NumComplexObjects: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Roots) != 100 {
		t.Errorf("roots = %d", len(db.Roots))
	}
	if db.NodesPerObject != 7 {
		t.Errorf("nodes per object = %d, want 7 (3-level binary tree)", db.NodesPerObject)
	}
	if db.Template.Nodes() != 7 || db.Template.Depth() != 3 {
		t.Errorf("template shape wrong: %d nodes, depth %d", db.Template.Nodes(), db.Template.Depth())
	}
	if n, _ := db.Store.Locator.Len(); n != 700 {
		t.Errorf("locator has %d objects, want 700", n)
	}
	// Cold start: generation traffic must be invisible.
	if db.Device.Stats().Reads != 0 {
		t.Errorf("device stats not reset: %+v", db.Device.Stats())
	}
	if db.Pool.Stats().Hits+db.Pool.Stats().Faults != 0 {
		t.Errorf("pool stats not reset: %+v", db.Pool.Stats())
	}
}

func TestObjectGeometry(t *testing.T) {
	db, err := Build(Config{NumComplexObjects: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	o, err := db.Store.Get(db.Roots[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Ints) != 4 || len(o.Refs) != 8 {
		t.Errorf("object has %d ints, %d refs; want 4 and 8", len(o.Ints), len(o.Refs))
	}
	rec, err := object.Encode(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != 96 {
		t.Errorf("record = %d bytes, want 96", len(rec))
	}
}

func TestTreeWiring(t *testing.T) {
	db, err := Build(Config{NumComplexObjects: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Every root reaches exactly 7 objects via fields 0 and 1; leaves
	// have nil child refs.
	for _, root := range db.Roots {
		count := 0
		var visit func(oid object.OID, depth int)
		visit = func(oid object.OID, depth int) {
			o, err := db.Store.Get(oid)
			if err != nil {
				t.Fatalf("get %v: %v", oid, err)
			}
			count++
			if depth == 3 {
				if !o.Refs[0].IsNil() || !o.Refs[1].IsNil() {
					t.Fatalf("leaf %v has children", oid)
				}
				return
			}
			if o.Refs[0].IsNil() || o.Refs[1].IsNil() {
				t.Fatalf("inner node %v missing children", oid)
			}
			visit(o.Refs[0], depth+1)
			visit(o.Refs[1], depth+1)
		}
		visit(root, 1)
		if count != 7 {
			t.Fatalf("root %v reaches %d objects", root, count)
		}
	}
}

func TestRootOfMapping(t *testing.T) {
	db, err := Build(Config{NumComplexObjects: 20, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range db.Roots {
		o, err := db.Store.Get(root)
		if err != nil {
			t.Fatal(err)
		}
		if db.RootOf[root] != root {
			t.Errorf("RootOf(root) = %v", db.RootOf[root])
		}
		if db.RootOf[o.Refs[0]] != root {
			t.Errorf("RootOf(child) = %v, want %v", db.RootOf[o.Refs[0]], root)
		}
	}
}

func TestClusteringLayouts(t *testing.T) {
	const n = 200
	for _, cl := range []Clustering{Unclustered, InterObject, IntraObject} {
		t.Run(cl.String(), func(t *testing.T) {
			db, err := Build(Config{NumComplexObjects: n, Clustering: cl, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			switch cl {
			case IntraObject:
				// The inner levels of each tree (root + its children)
				// must sit within a tight page range; leaves scatter.
				for _, root := range db.Roots[:20] {
					o, err := db.Store.Get(root)
					if err != nil {
						t.Fatal(err)
					}
					pages := []int{pageIdx(t, db, root), pageIdx(t, db, o.Refs[0]), pageIdx(t, db, o.Refs[1])}
					lo, hi := pages[0], pages[0]
					for _, p := range pages {
						if p < lo {
							lo = p
						}
						if p > hi {
							hi = p
						}
					}
					if hi-lo > 1 {
						t.Errorf("intra-object inner levels span pages %d..%d", lo, hi)
					}
				}
			case InterObject:
				// All objects of one type in one region; different
				// types in different regions.
				region := func(oid object.OID) int {
					rid, ok, err := db.Store.WhereIs(oid)
					if err != nil || !ok {
						t.Fatalf("locate %v", oid)
					}
					return int(rid.Page-db.Store.File.First()) / db.Config.RegionPages
				}
				rootRegion := region(db.Roots[0])
				for _, r := range db.Roots[:20] {
					if region(r) != rootRegion {
						t.Errorf("roots in different regions")
					}
				}
				o, _ := db.Store.Get(db.Roots[0])
				if region(o.Refs[0]) == rootRegion {
					t.Errorf("child type shares the root's region")
				}
			case Unclustered:
				// Trees should span distant pages on average.
				spread := 0
				for _, root := range db.Roots[:20] {
					lo, hi := pageSpan(t, db, root)
					spread += hi - lo
				}
				if spread/20 < 10 {
					t.Errorf("unclustered trees too compact: avg span %d pages", spread/20)
				}
			}
		})
	}
}

func pageIdx(t *testing.T, db *Database, oid object.OID) int {
	t.Helper()
	rid, ok, err := db.Store.WhereIs(oid)
	if err != nil || !ok {
		t.Fatalf("locate %v", oid)
	}
	return int(rid.Page)
}

func pageSpan(t *testing.T, db *Database, root object.OID) (lo, hi int) {
	t.Helper()
	lo, hi = 1<<30, -1
	var visit func(oid object.OID)
	visit = func(oid object.OID) {
		if oid.IsNil() {
			return
		}
		rid, ok, err := db.Store.WhereIs(oid)
		if err != nil || !ok {
			t.Fatalf("locate %v", oid)
		}
		p := int(rid.Page)
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
		o, err := db.Store.Get(oid)
		if err != nil {
			t.Fatal(err)
		}
		visit(o.Refs[0])
		visit(o.Refs[1])
	}
	visit(root)
	return lo, hi
}

func TestSharingPool(t *testing.T) {
	const n = 400
	db, err := Build(Config{NumComplexObjects: n, Sharing: 0.25, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Leaf positions draw from pools of 0.25*n objects; count distinct
	// leaves reachable from all roots.
	distinct := map[object.OID]bool{}
	refs := 0
	for _, root := range db.Roots {
		o, _ := db.Store.Get(root)
		for _, mid := range []object.OID{o.Refs[0], o.Refs[1]} {
			m, _ := db.Store.Get(mid)
			for _, leaf := range []object.OID{m.Refs[0], m.Refs[1]} {
				distinct[leaf] = true
				refs++
			}
		}
	}
	if refs != 4*n {
		t.Fatalf("leaf references = %d", refs)
	}
	// 4 leaf positions, each a pool of n/4: at most n distinct leaves,
	// and random draws should reach most of each pool.
	maxDistinct := 4 * n / 4
	if len(distinct) > maxDistinct {
		t.Errorf("distinct shared leaves = %d, want <= %d", len(distinct), maxDistinct)
	}
	if len(distinct) < maxDistinct*8/10 {
		t.Errorf("distinct shared leaves = %d, pools badly undersampled", len(distinct))
	}
	// Template records the statistic on leaf nodes.
	leafNode := db.Template.Children[0].Children[0]
	if !leafNode.Shared || leafNode.SharingDegree != 0.25 {
		t.Errorf("leaf template node: shared=%v degree=%v", leafNode.Shared, leafNode.SharingDegree)
	}
	if db.Template.Shared {
		t.Error("root marked shared")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Build(Config{NumComplexObjects: 50, Clustering: Unclustered, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(Config{NumComplexObjects: 50, Clustering: Unclustered, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Roots {
		if a.Roots[i] != b.Roots[i] {
			t.Fatalf("roots differ at %d", i)
		}
		ra, _, _ := a.Store.WhereIs(a.Roots[i])
		rb, _, _ := b.Store.WhereIs(b.Roots[i])
		if ra != rb {
			t.Fatalf("placement differs at %d: %v vs %v", i, ra, rb)
		}
	}
	c, err := Build(Config{NumComplexObjects: 50, Clustering: Unclustered, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Roots {
		ra, _, _ := a.Store.WhereIs(a.Roots[i])
		rc, _, _ := c.Store.WhereIs(c.Roots[i])
		if ra != rc {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical placement")
	}
}

func TestRegionOverflowDetected(t *testing.T) {
	_, err := Build(Config{
		NumComplexObjects: 1000,
		Clustering:        InterObject,
		RegionPages:       10, // far too small
		Seed:              8,
	})
	if err == nil {
		t.Error("region overflow not detected")
	}
}

func TestCustomShape(t *testing.T) {
	db, err := Build(Config{NumComplexObjects: 20, Levels: 4, Fanout: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + 3 + 9 + 27
	if db.NodesPerObject != want {
		t.Errorf("positions = %d, want %d", db.NodesPerObject, want)
	}
	if db.Template.Nodes() != want {
		t.Errorf("template nodes = %d, want %d", db.Template.Nodes(), want)
	}
}

// TestFanoutsShapes covers the per-level fanout vectors the OO7-style
// suite scenarios are built from: a deep narrow hierarchy and a wide
// shallow one, with the reference wiring checked against the declared
// shape by walking one complex object from its root.
func TestFanoutsShapes(t *testing.T) {
	cases := []struct {
		name    string
		fanouts []int
		nodes   int
	}{
		{"deep", []int{2, 2, 2, 2}, 1 + 2 + 4 + 8 + 16},
		{"wide", []int{8, 4}, 1 + 8 + 32},
		{"uneven", []int{3, 2, 1}, 1 + 3 + 6 + 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Build(Config{NumComplexObjects: 12, Fanouts: tc.fanouts, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			if db.NodesPerObject != tc.nodes {
				t.Errorf("positions = %d, want %d", db.NodesPerObject, tc.nodes)
			}
			if db.Template.Nodes() != tc.nodes || db.Template.Depth() != len(tc.fanouts)+1 {
				t.Errorf("template: %d nodes depth %d, want %d nodes depth %d",
					db.Template.Nodes(), db.Template.Depth(), tc.nodes, len(tc.fanouts)+1)
			}
			// Walk one complex object: every node must carry exactly its
			// level's fanout in non-nil references, and the walk must
			// visit the declared number of components.
			visited := 0
			var walk func(oid object.OID, level int)
			walk = func(oid object.OID, level int) {
				visited++
				o, err := db.Store.Get(oid)
				if err != nil {
					t.Fatalf("get %v: %v", oid, err)
				}
				want := 0
				if level < len(tc.fanouts) {
					want = tc.fanouts[level]
				}
				live := 0
				for _, r := range o.Refs {
					if !r.IsNil() {
						live++
					}
				}
				if live != want {
					t.Fatalf("level-%d node %v has %d children, want %d", level, oid, live, want)
				}
				for f := 0; f < want; f++ {
					walk(o.Refs[f], level+1)
				}
			}
			walk(db.Roots[0], 0)
			if visited != tc.nodes {
				t.Errorf("walk visited %d components, want %d", visited, tc.nodes)
			}
			// The exported shape metadata matches the walk.
			if db.LeafStart != tc.nodes-lastWidth(tc.fanouts) {
				t.Errorf("LeafStart = %d, want %d", db.LeafStart, tc.nodes-lastWidth(tc.fanouts))
			}
			if got := len(db.Children); got != tc.nodes {
				t.Errorf("Children has %d positions, want %d", got, tc.nodes)
			}
			if n, _ := db.Store.Locator.Len(); db.NextOID != object.OID(n+1) {
				t.Errorf("NextOID = %v, want %v (locator holds %d, OIDs from 1)", db.NextOID, n+1, n)
			}
		})
	}
}

func lastWidth(fanouts []int) int {
	w := 1
	for _, f := range fanouts {
		w *= f
	}
	return w
}

// TestFanoutTooWide rejects shapes that overflow the 8 reference
// fields of a component.
func TestFanoutTooWide(t *testing.T) {
	if _, err := Build(Config{NumComplexObjects: 5, Fanouts: []int{9}, Seed: 1}); err == nil {
		t.Error("fanout 9 accepted; components only carry 8 reference fields")
	}
}

// TestExtraPagesHeadroom verifies append headroom: the extent grows by
// ExtraPages empty pages after the data, and appended records land in
// them via explicit tail placement.
func TestExtraPagesHeadroom(t *testing.T) {
	db, err := Build(Config{NumComplexObjects: 30, Seed: 3, ExtraPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Store.File.NumPages(); got != db.DataPages+16 {
		t.Errorf("extent = %d pages, want DataPages %d + 16", got, db.DataPages)
	}
	o := &object.Object{
		OID:   db.NextOID,
		Class: db.Positions[0].ID,
		Ints:  []int32{1, 2, 3, 0},
		Refs:  make([]object.OID, 8),
	}
	rid, err := db.Store.PutAt(o, db.DataPages)
	if err != nil {
		t.Fatal(err)
	}
	pid, err := db.Store.File.PageAt(db.DataPages)
	if err != nil {
		t.Fatal(err)
	}
	if rid.Page != pid {
		t.Errorf("append landed on page %v, want first headroom page %v", rid.Page, pid)
	}
	got, err := db.Store.Get(o.OID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ints[0] != 1 || got.Ints[1] != 2 {
		t.Errorf("round-trip mismatch: %+v", got.Ints)
	}
}

// TestStoreUpdateInPlace mutates a component through Store.Update and
// reads the change back, without moving the record.
func TestStoreUpdateInPlace(t *testing.T) {
	db, err := Build(Config{NumComplexObjects: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	oid := db.Roots[3]
	before, _, err := db.Store.WhereIs(oid)
	if err != nil {
		t.Fatal(err)
	}
	o, err := db.Store.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	o.Ints[1] = 777
	if err := db.Store.Update(o); err != nil {
		t.Fatal(err)
	}
	after, _, err := db.Store.WhereIs(oid)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Errorf("update moved the record: %v -> %v", before, after)
	}
	got, err := db.Store.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ints[1] != 777 {
		t.Errorf("Ints[1] = %d after update, want 777", got.Ints[1])
	}
}
