// Package gen builds the benchmark databases of the paper's Section 6:
// sets of complex objects shaped as binary trees of three levels, each
// component a 96-byte object (4 integer + 8 reference fields, 9 per
// 1 KB page), laid out on the simulated device under one of the three
// clustering policies of Section 6.1 and optionally sharing leaf
// sub-objects (Section 6.4).
//
// Everything is deterministic given the seed, so experiments are
// reproducible run to run.
package gen

import (
	"fmt"
	"math/rand"
	"sort"

	"revelation/internal/assembly"
	"revelation/internal/buffer"
	"revelation/internal/disk"
	"revelation/internal/heap"
	"revelation/internal/object"
)

// Clustering selects a physical layout policy (Figs. 8–10).
type Clustering int

// Clustering policies.
const (
	// Unclustered places objects randomly across the file (Fig. 8).
	Unclustered Clustering = iota
	// InterObject groups objects of the same type (tree position) into
	// fixed-size type regions, regions shuffled on disk (Figs. 9, 12).
	InterObject
	// IntraObject places each complex object's components together in
	// traversal order (Fig. 10).
	IntraObject
)

func (c Clustering) String() string {
	switch c {
	case Unclustered:
		return "unclustered"
	case InterObject:
		return "inter-object"
	case IntraObject:
		return "intra-object"
	default:
		return fmt.Sprintf("clustering(%d)", int(c))
	}
}

// Config parameterizes a generated database.
type Config struct {
	// NumComplexObjects is the database size in complex objects
	// (1000–4000 in the paper).
	NumComplexObjects int
	// Levels and Fanout shape each complex object; the paper uses a
	// binary tree of 3 levels (7 components). Defaults: 3 and 2.
	Levels, Fanout int
	// Fanouts, when non-empty, overrides Levels/Fanout with an explicit
	// per-level fanout vector: Fanouts[l] is the number of children of
	// every level-l node, so len(Fanouts)+1 is the tree depth. This is
	// what OO7-style shapes are built from — deep assembly hierarchies
	// ([2,2,2,2]), wide composite parts ([8,4]), and anything between.
	// Every fanout must be 1..8 (components carry 8 reference fields).
	Fanouts []int
	// Clustering selects the layout policy.
	Clustering Clustering
	// Sharing is the ratio of shared objects to sharing objects at the
	// leaf level (0.25 means four complex objects share each leaf on
	// average); zero disables sharing.
	Sharing float64
	// Seed drives all randomized placement decisions.
	Seed int64
	// PageSize defaults to the paper's 1 KB.
	PageSize int
	// BufferPages sizes the buffer pool; zero means "large enough to
	// hold the whole database" (the paper's first benchmark group).
	BufferPages int
	// RegionPages is the inter-object cluster region size in pages;
	// zero derives a region larger than any database used in the
	// paper's benchmarks, reproducing the Fig. 11A flat lines.
	RegionPages int
	// Device, when set, receives the database (e.g. a file-backed
	// device from cmd/dbgen); nil builds an in-memory simulated disk.
	Device disk.Device
	// ExtraPages adds empty heap pages after the generated data, so
	// append workloads (e.g. the suite's time-series scenario) have
	// room to grow without reorganizing the extent.
	ExtraPages int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.NumComplexObjects <= 0 {
		c.NumComplexObjects = 1000
	}
	if c.Levels <= 0 {
		c.Levels = 3
	}
	if c.Fanout <= 0 {
		c.Fanout = 2
	}
	if len(c.Fanouts) == 0 {
		c.Fanouts = uniformFanouts(c.Levels, c.Fanout)
	} else {
		c.Levels = len(c.Fanouts) + 1
	}
	if c.PageSize <= 0 {
		c.PageSize = disk.DefaultPageSize
	}
	if c.RegionPages <= 0 {
		// Larger than the paper's largest database per type: 4000
		// objects / 9 per page = 445 pages; round up generously so the
		// region never fills ("the cluster size is larger than any
		// database size used in the benchmarks").
		c.RegionPages = 512
	}
	return c
}

// Database is a generated benchmark database with everything the
// experiments need.
type Database struct {
	Config   Config
	Device   disk.Device
	Pool     *buffer.Pool
	Store    *object.Store
	Template *assembly.Template
	// Roots holds the root OID of every complex object, in generation
	// order.
	Roots []object.OID
	// RootOf maps every component OID to its complex object's root OID
	// (shared components map to their first referencing root).
	RootOf map[object.OID]object.OID
	// NodesPerObject is the component count of one complex object.
	NodesPerObject int
	// Positions maps tree position index to its class.
	Positions []*object.Class
	// Children maps tree position index to its children's positions —
	// the shape consumers need to walk or extend the generated graphs
	// without re-deriving the numbering.
	Children [][]int
	// LeafStart is the first leaf-level position index.
	LeafStart int
	// NextOID is the first OID not used by the generated objects;
	// append workloads allocate from here.
	NextOID object.OID
	// DataPages is the number of extent pages holding generated data;
	// pages [DataPages, DataPages+ExtraPages) are empty headroom.
	DataPages int
}

// uniformFanouts expands the classic (levels, fanout) pair into a
// per-level fanout vector.
func uniformFanouts(levels, fanout int) []int {
	f := make([]int, levels-1)
	for i := range f {
		f[i] = fanout
	}
	return f
}

// levelWidths returns the node count of each level: 1 at the root,
// then the running product of the fanouts.
func levelWidths(fanouts []int) []int {
	widths := make([]int, len(fanouts)+1)
	widths[0] = 1
	for l, f := range fanouts {
		widths[l+1] = widths[l] * f
	}
	return widths
}

// positionCount returns the number of node positions of a full tree.
func positionCount(fanouts []int) int {
	n := 0
	for _, w := range levelWidths(fanouts) {
		n += w
	}
	return n
}

// Build generates a database per the configuration.
func Build(cfg Config) (*Database, error) { return build(cfg, load) }

// loader stores a laid-out database in a fresh extent of len(byPage)
// pages on the pool's device: byPage[pg]'s objects on page pg, in order,
// each OID registered in a new resident locator (object.MapLocator:
// locator traffic stays out of the seek metric, as in the paper's
// experiments).
type loader func(pool *buffer.Pool, byPage [][]*object.Object) (*heap.File, object.Locator, error)

func build(cfg Config, store loader) (*Database, error) {
	cfg = cfg.withDefaults()
	for _, f := range cfg.Fanouts {
		if f < 1 || f > 8 {
			return nil, fmt.Errorf("gen: fanout %d out of range 1..8 (components have 8 reference fields)", f)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	positions := positionCount(cfg.Fanouts)
	nTrees := cfg.NumComplexObjects

	// --- catalog: one class per tree position ---
	cat := object.NewCatalog()
	classes := make([]*object.Class, positions)
	for p := 0; p < positions; p++ {
		cls, err := cat.Define(&object.Class{
			Name:     fmt.Sprintf("T%d", p),
			NumInts:  4,
			NumRefs:  8,
			IntNames: []string{"seq", "rand", "tree", "pos"},
		})
		if err != nil {
			return nil, err
		}
		classes[p] = cls
	}

	// --- logical structure: per-position OID tables ---
	// Non-leaf positions get one object per tree. Leaf positions get a
	// shared pool when Sharing > 0.
	leafStart := firstLeafPosition(cfg.Fanouts)
	perPosCount := make([]int, positions)
	for p := 0; p < positions; p++ {
		if p >= leafStart && cfg.Sharing > 0 {
			n := int(float64(nTrees)*cfg.Sharing + 0.5)
			if n < 1 {
				n = 1
			}
			perPosCount[p] = n
		} else {
			perPosCount[p] = nTrees
		}
	}
	// OIDs: position p, index i -> sequential id space.
	oidOf := make([][]object.OID, positions)
	next := object.OID(1)
	for p := 0; p < positions; p++ {
		oidOf[p] = make([]object.OID, perPosCount[p])
		for i := range oidOf[p] {
			oidOf[p][i] = next
			next++
		}
	}
	// Tree membership: member[p][tree] = index into oidOf[p].
	member := make([][]int, positions)
	for p := 0; p < positions; p++ {
		member[p] = make([]int, nTrees)
		for tr := 0; tr < nTrees; tr++ {
			if perPosCount[p] == nTrees {
				member[p][tr] = tr
			} else {
				member[p][tr] = rng.Intn(perPosCount[p])
			}
		}
	}

	// --- materialize objects ---
	// OIDs are dense, 1..next-1, so every per-object table is a slice
	// indexed by OID.
	objs := make([]*object.Object, next)
	rootOf := make(map[object.OID]object.OID, int(next)-1)
	childrenOf := childPositions(cfg.Fanouts)
	seq := int32(0)
	for p := 0; p < positions; p++ {
		for i := 0; i < perPosCount[p]; i++ {
			objs[oidOf[p][i]] = &object.Object{
				OID:   oidOf[p][i],
				Class: classes[p].ID,
				Ints:  []int32{seq, int32(rng.Intn(1000)), int32(i), int32(p)},
				Refs:  make([]object.OID, 8),
			}
			seq++
		}
	}
	// Wire references per tree.
	for tr := 0; tr < nTrees; tr++ {
		for p := 0; p < positions; p++ {
			parent := objs[oidOf[p][member[p][tr]]]
			for f, cp := range childrenOf[p] {
				child := oidOf[cp][member[cp][tr]]
				parent.Refs[f] = child
			}
		}
		root := oidOf[0][member[0][tr]]
		for p := 0; p < positions; p++ {
			oid := oidOf[p][member[p][tr]]
			if _, seen := rootOf[oid]; !seen {
				rootOf[oid] = root
			}
		}
	}

	// --- physical layout ---
	objPerPage := (cfg.PageSize - 32 /*page header*/) / (96 + 4) // 9 at 1 KB
	var filePages int
	pageOf := make([]int, next) // by OID: extent-relative page index
	switch cfg.Clustering {
	case InterObject:
		filePages = positions * cfg.RegionPages
		// Region order on disk differs from breadth-first fetch order
		// (Fig. 12): type regions are laid out in the *traversal*
		// (depth-first) order of the tree positions. Reading the
		// paper's Fig. 11A discussion: breadth-first fetches clusters
		// in level order, "however, the clusters are not physically
		// placed in that order. The other two algorithms fetch from
		// the clusters in the order they exist on disk" — i.e. the
		// method-traversal order matches the physical layout and the
		// level order does not.
		dfsRank := make([]int, positions)
		for rank, p := range traversalOrder(cfg.Fanouts) {
			dfsRank[p] = rank
		}
		for p := 0; p < positions; p++ {
			region := dfsRank[p]
			ids := append([]object.OID(nil), oidOf[p]...)
			rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
			if need := (len(ids) + objPerPage - 1) / objPerPage; need > cfg.RegionPages {
				return nil, fmt.Errorf("gen: %d objects of type %d need %d pages, region holds %d",
					len(ids), p, need, cfg.RegionPages)
			}
			for i, oid := range ids {
				pageOf[oid] = region*cfg.RegionPages + i/objPerPage
			}
		}
	case IntraObject:
		// "Clustering some or all of the parts of a composite object
		// together" (Section 6.1): each complex object's inner levels
		// are stored contiguously per object, while leaf components —
		// frequently shared with other composites in practice — live
		// outside the clusters, scattered across a trailing region.
		// Clustering every component would collapse a 7-object tree
		// onto a single page and erase all scheduling differences;
		// partial intra-object clustering is what gives Fig. 11B its
		// non-trivial curves.
		innerCount := 0
		seenOID := make([]bool, next)
		order := traversalOrder(cfg.Fanouts)
		slot := 0
		for tr := 0; tr < nTrees; tr++ {
			for _, p := range order {
				if p >= leafStart {
					continue
				}
				oid := oidOf[p][member[p][tr]]
				if seenOID[oid] {
					continue
				}
				seenOID[oid] = true
				pageOf[oid] = slot / objPerPage
				slot++
				innerCount++
			}
		}
		innerPages := innerCount/objPerPage + 1
		var leafIDs []object.OID
		for p := leafStart; p < positions; p++ {
			leafIDs = append(leafIDs, oidOf[p]...)
		}
		rng.Shuffle(len(leafIDs), func(a, b int) { leafIDs[a], leafIDs[b] = leafIDs[b], leafIDs[a] })
		for i, oid := range leafIDs {
			pageOf[oid] = innerPages + i/objPerPage
		}
		filePages = innerPages + len(leafIDs)/objPerPage + 1
	default: // Unclustered
		ids := make([]object.OID, 0, len(objs)-1)
		for _, o := range objs[1:] {
			ids = append(ids, o.OID)
		}
		rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
		for i, oid := range ids {
			pageOf[oid] = i / objPerPage
		}
		filePages = len(ids)/objPerPage + 1
	}

	// --- storage ---
	dataPages := filePages
	filePages += cfg.ExtraPages
	dev := cfg.Device
	if dev == nil {
		dev = disk.NewSim(cfg.PageSize, 0)
	}
	bufPages := cfg.BufferPages
	if bufPages <= 0 {
		bufPages = filePages + 128 // "enough buffer space to hold the largest database"
	}
	pool := buffer.New(dev, bufPages)
	byPage := make([][]*object.Object, filePages)
	for _, o := range objs[1:] {
		byPage[pageOf[o.OID]] = append(byPage[pageOf[o.OID]], o)
	}
	file, loc, err := store(pool, byPage)
	if err != nil {
		return nil, err
	}
	// Load traffic must not pollute the experiment's metric, and the
	// pool must start cold: the paper measures disk behaviour.
	if err := pool.EvictAll(); err != nil {
		return nil, err
	}
	pool.ResetStats()
	dev.ResetStats()
	dev.ResetHead()

	// --- template ---
	tmpl := buildTemplate(cfg, classes, leafStart)

	roots := make([]object.OID, nTrees)
	for tr := 0; tr < nTrees; tr++ {
		roots[tr] = oidOf[0][member[0][tr]]
	}
	return &Database{
		Config:         cfg,
		Device:         dev,
		Pool:           pool,
		Store:          object.NewStore(file, loc, cat),
		Template:       tmpl,
		Roots:          roots,
		RootOf:         rootOf,
		NodesPerObject: positions,
		Positions:      classes,
		Children:       childrenOf,
		LeafStart:      leafStart,
		NextOID:        next,
		DataPages:      dataPages,
	}, nil
}

// load is Build's loader. Each page is composed once and written
// straight to the device (heap.Load), and each RID is registered as it
// is placed.
func load(pool *buffer.Pool, byPage [][]*object.Object) (*heap.File, object.Locator, error) {
	loc := object.NewMapLocator()
	file, err := heap.Load(pool, len(byPage), func(pg int, put func([]byte) (heap.RID, error)) error {
		for _, o := range byPage[pg] {
			rec, err := object.Encode(o)
			var rid heap.RID
			if err == nil {
				rid, err = put(rec)
			}
			if err == nil {
				err = loc.Register(o.OID, rid)
			}
			if err != nil {
				return fmt.Errorf("gen: place %v on page %d: %w", o.OID, pg, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return file, loc, nil
}

// firstLeafPosition returns the index of the first leaf-level position
// in breadth-first numbering.
func firstLeafPosition(fanouts []int) int {
	widths := levelWidths(fanouts)
	n := 0
	for _, w := range widths[:len(widths)-1] {
		n += w
	}
	return n
}

// childPositions maps each position to its children's positions in
// breadth-first numbering; the f-th child of the i-th level-l node is
// position start(l+1) + i*fanouts[l] + f and occupies reference field
// f. For uniform fanouts this reduces to the classic p*fanout+1+f.
func childPositions(fanouts []int) [][]int {
	out := make([][]int, positionCount(fanouts))
	widths := levelWidths(fanouts)
	start := 0
	for l, f := range fanouts {
		childStart := start + widths[l]
		for i := 0; i < widths[l]; i++ {
			p := start + i
			for c := 0; c < f; c++ {
				out[p] = append(out[p], childStart+i*f+c)
			}
		}
		start = childStart
	}
	return out
}

// traversalOrder returns positions in depth-first (method-traversal)
// order, the order intra-object clustering lays components out.
func traversalOrder(fanouts []int) []int {
	children := childPositions(fanouts)
	var order []int
	var visit func(p int)
	visit = func(p int) {
		order = append(order, p)
		for _, c := range children[p] {
			visit(c)
		}
	}
	visit(0)
	return order
}

// buildTemplate mirrors the generated structure as an assembly
// template, annotating leaf positions with the sharing statistic.
func buildTemplate(cfg Config, classes []*object.Class, leafStart int) *assembly.Template {
	children := childPositions(cfg.Fanouts)
	var build func(p int) *assembly.Template
	build = func(p int) *assembly.Template {
		n := &assembly.Template{
			Name:     string(rune('A' + p%26)),
			Class:    classes[p].ID,
			RefField: -1,
			Required: true,
		}
		if p >= leafStart && cfg.Sharing > 0 {
			n.Shared = true
			n.SharingDegree = cfg.Sharing
		}
		for f, cp := range children[p] {
			c := build(cp)
			c.RefField = f
			n.Children = append(n.Children, c)
		}
		return n
	}
	return build(0)
}

// ComponentPages returns, for every root, the distinct data pages
// backing the components RootOf attributes to it (shared components
// count under their first referencing root), each page list sorted.
// Fault-injection tests use it to predict exactly which complex
// objects a dead page range — a failed device region, a downed shard —
// poisons.
func (db *Database) ComponentPages() (map[object.OID][]disk.PageID, error) {
	pages := map[object.OID]map[disk.PageID]bool{}
	for oid, root := range db.RootOf {
		rid, ok, err := db.Store.WhereIs(oid)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("gen: component %d has no location", oid)
		}
		if pages[root] == nil {
			pages[root] = map[disk.PageID]bool{}
		}
		pages[root][rid.Page] = true
	}
	out := make(map[object.OID][]disk.PageID, len(pages))
	for root, set := range pages {
		list := make([]disk.PageID, 0, len(set))
		for p := range set {
			list = append(list, p)
		}
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		out[root] = list
	}
	return out, nil
}
