package revelation_test

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"revelation"
	"revelation/internal/assembly"
	"revelation/internal/expr"
	"revelation/internal/gen"
	"revelation/internal/volcano"
)

// Store a handful of complex objects, assemble them with the assembly
// operator, and look at the seek statistics: the smallest end-to-end
// tour of the public API.
func Example() {
	// An in-memory engine: simulated 1 KB-page disk, buffer pool, heap
	// file, OID locator.
	eng, err := revelation.New(revelation.Config{DataPages: 64})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// A schema: documents reference an author and an appendix.
	cat := eng.Catalog()
	doc := cat.MustDefine(&revelation.Class{
		Name: "Document", NumInts: 2, NumRefs: 2,
		IntNames: []string{"id", "pages"},
		RefNames: []string{"author", "appendix"},
	})
	person := cat.MustDefine(&revelation.Class{
		Name: "Person", NumInts: 2, IntNames: []string{"id", "age"},
	})
	appendix := cat.MustDefine(&revelation.Class{
		Name: "Appendix", NumInts: 2, IntNames: []string{"id", "pages"},
	})

	// Ten documents, each its own little complex object.
	var roots []revelation.OID
	for i := int32(0); i < 10; i++ {
		next := revelation.OID(3*i + 1)
		au := &revelation.Object{OID: next, Class: person.ID, Ints: []int32{i, 30 + i}}
		ap := &revelation.Object{OID: next + 1, Class: appendix.ID, Ints: []int32{i, 5 * i}}
		d := &revelation.Object{OID: next + 2, Class: doc.ID, Ints: []int32{i, 100 + i},
			Refs: []revelation.OID{au.OID, ap.OID}}
		for _, o := range []*revelation.Object{au, ap, d} {
			if _, err := eng.Put(o); err != nil {
				log.Fatal(err)
			}
		}
		roots = append(roots, d.OID)
	}

	// A template mirrors the complex object's shape.
	tmpl := &revelation.Template{
		Name: "Document", Class: doc.ID, RefField: -1,
		Children: []*revelation.Template{
			{Name: "Author", Class: person.ID, RefField: 0, Required: true},
			{Name: "Appendix", Class: appendix.ID, RefField: 1, Required: true},
		},
	}

	// Assemble the whole set with a sliding window and elevator
	// scheduling, measured from a cold buffer.
	if err := eng.ResetMeasurements(true); err != nil {
		log.Fatal(err)
	}
	instances, err := eng.AssembleAll(roots, tmpl, revelation.Options{
		Window:    5,
		Scheduler: revelation.Elevator,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Assembled complex objects traverse by following Go pointers: the
	// OIDs were swizzled away.
	for _, inst := range instances {
		author := inst.ChildByName("Author")
		app := inst.ChildByName("Appendix")
		fmt.Printf("document %2d: %3d pages, author age %2d, appendix %2d pages\n",
			inst.Object.Ints[0], inst.Object.Ints[1],
			author.Object.Ints[1], app.Object.Ints[1])
	}
	st := eng.DeviceStats()
	fmt.Printf("\nassembled %d complex objects: %d page reads, average seek %.1f pages\n",
		len(instances), st.Reads, st.AvgSeekPerRead())
	// Output:
	// document  4: 104 pages, author age 34, appendix 20 pages
	// document  5: 105 pages, author age 35, appendix 25 pages
	// document  6: 106 pages, author age 36, appendix 30 pages
	// document  7: 107 pages, author age 37, appendix 35 pages
	// document  8: 108 pages, author age 38, appendix 40 pages
	// document  3: 103 pages, author age 33, appendix 15 pages
	// document  2: 102 pages, author age 32, appendix 10 pages
	// document  1: 101 pages, author age 31, appendix  5 pages
	// document  0: 100 pages, author age 30, appendix  0 pages
	// document  9: 109 pages, author age 39, appendix 45 pages
	//
	// assembled 10 complex objects: 2 page reads, average seek 0.5 pages
}

// The paper's running example (Figures 2 and 3), "retrieve all people
// that live in the same city as their father", evaluated three ways:
// naive object-at-a-time traversal, the way a compiled method runs; the
// assembly operator with elevator scheduling; and selective assembly,
// which pushes a one-city test into the operator so failing complex
// objects abort early. The answers agree; the disk behaviour does not.
func Example_genealogy() {
	const people = 2000
	// A 64-page buffer, far smaller than the database, so the read
	// counts reflect disk behaviour, not cache warmth.
	eng, err := revelation.New(revelation.Config{
		DataPages:   people * 3 / 9 * 2,
		BufferPages: 64,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	person := eng.Catalog().MustDefine(&revelation.Class{
		Name: "Person", NumInts: 2, NumRefs: 2,
		IntNames: []string{"id", "age"},
		RefNames: []string{"father", "residence"},
	})
	residence := eng.Catalog().MustDefine(&revelation.Class{
		Name: "Residence", NumInts: 2, IntNames: []string{"id", "city"},
	})

	// Each person lives in one of 50 cities and has a father with his
	// own residence; a quarter live in their father's city. Objects are
	// stored in random order: an unclustered database, the hardest case
	// for naive traversal.
	rng := rand.New(rand.NewSource(7))
	var all []*revelation.Object
	var roots []revelation.OID
	newObj := func(cls *revelation.Class, ints []int32, refs []revelation.OID) *revelation.Object {
		o := &revelation.Object{OID: revelation.OID(len(all) + 1), Class: cls.ID, Ints: ints, Refs: refs}
		all = append(all, o)
		return o
	}
	for i := int32(0); i < people; i++ {
		cityChild := int32(rng.Intn(50))
		cityFather := int32(rng.Intn(50))
		if rng.Intn(4) == 0 {
			cityFather = cityChild
		}
		fRes := newObj(residence, []int32{i, cityFather}, nil)
		cRes := newObj(residence, []int32{i, cityChild}, nil)
		father := newObj(person, []int32{i, 55 + int32(rng.Intn(30))}, []revelation.OID{0, fRes.OID})
		child := newObj(person, []int32{i, 20 + int32(rng.Intn(30))}, []revelation.OID{father.OID, cRes.OID})
		roots = append(roots, child.OID)
	}
	rng.Shuffle(len(all), func(a, b int) { all[a], all[b] = all[b], all[a] })
	for _, o := range all {
		if _, err := eng.Put(o); err != nil {
			log.Fatal(err)
		}
	}

	// The paper's Figure 2 complex object as a template.
	tmpl := &revelation.Template{
		Name: "Person", Class: person.ID, RefField: -1,
		Children: []*revelation.Template{
			{Name: "Father", Class: person.ID, RefField: 0, Required: true,
				Children: []*revelation.Template{
					{Name: "FatherResidence", Class: residence.ID, RefField: 1, Required: true},
				}},
			{Name: "Residence", Class: residence.ID, RefField: 1, Required: true},
		},
	}
	livesClose := func(inst *revelation.Instance) bool {
		child := inst.ChildByName("Residence")
		father := inst.ChildByName("Father").ChildByName("FatherResidence")
		return child.Object.Ints[1] == father.Object.Ints[1]
	}
	report := func(label string, matches int, suffix string) {
		st := eng.DeviceStats()
		fmt.Printf("%-24s %4d matches, %6d reads, avg seek %7.1f pages%s\n",
			label, matches, st.Reads, st.AvgSeekPerRead(), suffix)
	}
	get := func(oid revelation.OID) *revelation.Object {
		o, err := eng.Get(oid)
		if err != nil {
			log.Fatal(err)
		}
		return o
	}

	// 1. Naive: object-at-a-time, method-traversal order.
	if err := eng.ResetMeasurements(true); err != nil {
		log.Fatal(err)
	}
	naive := 0
	for _, root := range roots {
		c := get(root)
		fRes := get(get(c.Refs[0]).Refs[1])
		if get(c.Refs[1]).Ints[1] == fRes.Ints[1] {
			naive++
		}
	}
	report("naive object-at-a-time:", naive, "")

	// 2. Set-oriented assembly, then select in memory.
	if err := eng.ResetMeasurements(true); err != nil {
		log.Fatal(err)
	}
	instances, err := eng.AssembleAll(roots, tmpl, revelation.Options{
		Window:    50,
		Scheduler: revelation.Elevator,
	})
	if err != nil {
		log.Fatal(err)
	}
	assembled := 0
	for _, inst := range instances {
		if livesClose(inst) {
			assembled++
		}
	}
	report("assembly + select:", assembled, "")

	// 3. Selective assembly, restricted to one city (Section 4's "state
	// of Oregon"): the residence tests go into the template, so the
	// operator fetches residences first and abandons the rest.
	const wantCity = 13
	sel := tmpl.Clone()
	for _, name := range []string{"Residence", "FatherResidence"} {
		sel.FindByName(name).Pred = expr.IntCmp{Field: 1, Op: expr.EQ, Value: wantCity, Sel: 1.0 / 50}
	}
	if err := eng.ResetMeasurements(true); err != nil {
		log.Fatal(err)
	}
	restricted, err := eng.AssembleAll(roots, sel, revelation.Options{
		Window:         50,
		Scheduler:      revelation.Elevator,
		PredicateFirst: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	report("selective assembly:", len(restricted), fmt.Sprintf(" (city %d only)", wantCity))

	if naive != assembled {
		log.Fatalf("answer mismatch: naive %d, assembly %d", naive, assembled)
	}
	for _, inst := range restricted {
		if !livesClose(inst) || inst.ChildByName("Residence").Object.Ints[1] != wantCity {
			log.Fatal("selective assembly emitted a non-matching person")
		}
	}
	fmt.Printf("\nall three strategies agree; selective assembly verified %d qualifying people\n", len(restricted))
	// Output:
	// naive object-at-a-time:   529 matches,   6278 reads, avg seek    98.3 pages
	// assembly + select:        529 matches,   5996 reads, avg seek     4.0 pages
	// selective assembly:         6 matches,   3807 reads, avg seek     3.9 pages (city 13 only)
	//
	// all three strategies agree; selective assembly verified 6 qualifying people
}

// The paper's Figure 1 flow in miniature: a query over a set of complex
// objects either runs naively, object at a time inside the run-time
// system, or is revealed: rewritten into a physical plan whose data
// preparation is the assembly operator, with the pushable predicate in
// the template. Both return the same complex objects.
func Example_reveal() {
	// The paper's benchmark database: 2000 complex objects, unclustered,
	// with a modest buffer so reads mean something.
	db, err := gen.Build(gen.Config{
		NumComplexObjects: 2000,
		Clustering:        gen.Unclustered,
		Seed:              19,
		BufferPages:       128,
	})
	if err != nil {
		log.Fatal(err)
	}
	eng := &revelation.Engine{Device: db.Device, Pool: db.Pool, Store: db.Store}

	// "Retrieve the complex objects whose G leaf scores under 150 and
	// whose root outranks its D leaf": the G test is algebraic and
	// pushable; the root-vs-D comparison is residual.
	q := &revelation.Query{
		Template: db.Template,
		Roots:    db.Roots,
		NodePreds: map[string]revelation.Predicate{
			"G": expr.IntCmp{Field: 1, Op: expr.LT, Value: 150, Sel: 0.15},
		},
		Where: func(in *revelation.Instance) bool {
			d := in.Children[0].Children[0]
			return in.Object.Ints[1] > d.Object.Ints[1]
		},
	}
	opts := revelation.Options{Window: 50, Scheduler: revelation.Elevator}
	plan, err := eng.Reveal(q, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("revealed physical plan:")
	for _, line := range strings.Split(strings.TrimRight(revelation.Explain(plan), "\n"), "\n") {
		fmt.Println("  " + line)
	}

	run := func(exec func() ([]*revelation.Instance, error)) ([]*revelation.Instance, revelation.DeviceStats) {
		if err := eng.ResetMeasurements(true); err != nil {
			log.Fatal(err)
		}
		out, err := exec()
		if err != nil {
			log.Fatal(err)
		}
		return out, eng.DeviceStats()
	}
	naive, ns := run(func() ([]*revelation.Instance, error) { return eng.NaiveExec(q) })
	revealed, rs := run(func() ([]*revelation.Instance, error) { return eng.RevealExec(q, opts) })
	fmt.Printf("\nnaive:    %4d results, %6d reads, avg seek %7.1f pages\n",
		len(naive), ns.Reads, ns.AvgSeekPerRead())
	fmt.Printf("revealed: %4d results, %6d reads, avg seek %7.1f pages\n",
		len(revealed), rs.Reads, rs.AvgSeekPerRead())

	if len(naive) != len(revealed) {
		log.Fatalf("plans disagree: %d vs %d results", len(naive), len(revealed))
	}
	got := map[revelation.OID]bool{}
	for _, in := range revealed {
		got[in.OID()] = true
	}
	for _, in := range naive {
		if !got[in.OID()] {
			log.Fatalf("revealed plan missing %v", in.OID())
		}
	}
	fmt.Printf("\nboth executions returned the same %d complex objects\n", len(naive))
	// Output:
	// revealed physical plan:
	//   filter
	//     assembly(predicate-first/elevator, window 50, template "A" 7 nodes)
	//       slice(2000 items)
	//
	// naive:     141 results,  12997 reads, avg seek   516.1 pages
	// revealed:  141 results,   6588 reads, avg seek   354.2 pages
	//
	// both executions returned the same 141 complex objects
}

// Stacked assembly (Section 7, Figure 17) combines bottom-up and
// top-down assembly by stacking two assembly operators: the first
// assembles the B–D sub-objects of every complex object bottom-up, the
// second fetches the A and C objects top-down and links them with the
// sub-assemblies instead of refetching.
func Example_stacked() {
	// The paper's benchmark database: 3-level binary complex objects
	// under inter-object clustering.
	db, err := gen.Build(gen.Config{
		NumComplexObjects: 800,
		Clustering:        gen.InterObject,
		Seed:              21,
	})
	if err != nil {
		log.Fatal(err)
	}
	full := db.Template     // A -> (B, C), B -> (D, E), C -> (F, G)
	sub := full.Children[0] // the B subtree

	// Sub-roots for the bottom-up pass: the B component of each tree.
	var subRoots []volcano.Item
	for _, root := range db.Roots {
		o, err := db.Store.Get(root)
		if err != nil {
			log.Fatal(err)
		}
		subRoots = append(subRoots, o.Refs[0])
	}
	cold := func() {
		if err := db.Pool.EvictAll(); err != nil {
			log.Fatal(err)
		}
		db.Device.ResetStats()
	}
	cold()
	plan, err := assembly.NewStacked(assembly.StackedConfig{
		Store:    db.Store,
		Full:     full,
		Sub:      sub,
		SubRoots: volcano.NewSlice(subRoots),
		// The upward link from a B sub-assembly to its enclosing complex
		// object's root; a real system would keep it in an index or a
		// back-reference field.
		EnclosingRoot: func(in *assembly.Instance) (revelation.OID, error) {
			return db.RootOf[in.OID()], nil
		},
		BottomUp: assembly.Options{Window: 25, Scheduler: assembly.Elevator},
		TopDown:  assembly.Options{Window: 25, Scheduler: assembly.Elevator},
	})
	if err != nil {
		log.Fatal(err)
	}
	items, err := volcano.Drain(nil, plan)
	if err != nil {
		log.Fatal(err)
	}
	stacked := db.Device.Stats()

	// Every complex object is complete and correctly swizzled.
	for _, it := range items {
		inst := it.(*revelation.Instance)
		if inst.Size() != 7 {
			log.Fatalf("complex object %v has %d components", inst.OID(), inst.Size())
		}
		inst.Walk(func(in *revelation.Instance) {
			for slot, ct := range in.Node.Children {
				if in.Children[slot].OID() != in.Object.Refs[ct.RefField] {
					log.Fatalf("bad swizzle under %v", in.OID())
				}
			}
		})
	}
	fmt.Printf("stacked assembly (Fig. 17): %d complex objects via bottom-up B/D pass + top-down A/C pass\n", len(items))
	fmt.Printf("  %d reads, avg seek %.1f pages\n", stacked.Reads, stacked.AvgSeekPerRead())

	// Compare with a single top-down operator doing everything.
	cold()
	n, err := volcano.Count(assembly.New(volcano.FromOIDs(db.Roots), db.Store, full,
		assembly.Options{Window: 25, Scheduler: assembly.Elevator}))
	if err != nil {
		log.Fatal(err)
	}
	st := db.Device.Stats()
	fmt.Printf("single top-down operator:   %d complex objects, %d reads, avg seek %.1f pages\n",
		n, st.Reads, st.AvgSeekPerRead())
	fmt.Println("\nboth plans produce the same complex objects; stacking exists for plans")
	fmt.Println("that need bottom-up order (e.g. when sub-objects arrive from another operator).")
	// Output:
	// stacked assembly (Fig. 17): 800 complex objects via bottom-up B/D pass + top-down A/C pass
	//   623 reads, avg seek 350.2 pages
	// single top-down operator:   800 complex objects, 623 reads, avg seek 128.5 pages
	//
	// both plans produce the same complex objects; stacking exists for plans
	// that need bottom-up order (e.g. when sub-objects arrive from another operator).
}
