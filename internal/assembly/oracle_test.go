package assembly

// Randomized oracle test: generate random templates and random object
// graphs (optional components, shared sub-objects, predicates), then
// check that the assembly operator — under every scheduler, several
// window sizes, and with sharing statistics on and off — produces
// exactly what a trivial recursive reference assembler produces.

import (
	"fmt"
	"math/rand"
	"testing"

	"revelation/internal/buffer"
	"revelation/internal/disk"
	"revelation/internal/expr"
	"revelation/internal/heap"
	"revelation/internal/object"
	"revelation/internal/volcano"
)

// oracleWorld is one randomly generated database + template.
type oracleWorld struct {
	store *object.Store
	tmpl  *Template
	roots []object.OID
	objs  map[object.OID]*object.Object
}

// genWorld builds a random world from rng.
func genWorld(t *testing.T, rng *rand.Rand) *oracleWorld {
	return genWorldOn(t, rng, disk.New(0))
}

// genWorldOn is genWorld over the given (empty) device.
func genWorldOn(t *testing.T, rng *rand.Rand, d disk.Device) *oracleWorld {
	t.Helper()
	pool := buffer.New(d, 4096)
	f, err := heap.Create(pool, 512)
	if err != nil {
		t.Fatal(err)
	}
	cat := object.NewCatalog()
	nRefs := 2 + rng.Intn(3) // 2..4 reference fields per object
	cls := cat.MustDefine(&object.Class{Name: "C", NumInts: 2, NumRefs: nRefs})
	store := object.NewStore(f, object.NewMapLocator(), cat)

	// Random template: depth 2..4, fanout up to nRefs.
	var build func(depth int) *Template
	build = func(depth int) *Template {
		n := &Template{
			Name:     fmt.Sprintf("n%d", rng.Int31()),
			Class:    cls.ID,
			RefField: -1,
		}
		if depth <= 1 {
			return n
		}
		fields := rng.Perm(nRefs)
		kids := 1 + rng.Intn(nRefs)
		for i := 0; i < kids; i++ {
			c := build(depth - 1 - rng.Intn(2))
			c.RefField = fields[i]
			c.Required = rng.Intn(3) > 0 // mostly required
			if rng.Intn(4) == 0 {
				c.Shared = true
				c.SharingDegree = 0.25
			}
			if rng.Intn(5) == 0 {
				// Predicate passing ~70% of objects (ints[0] uniform 0..9).
				c.Pred = expr.IntCmp{Field: 0, Op: expr.LT, Value: 7, Sel: 0.7}
			}
			n.Children = append(n.Children, c)
		}
		return n
	}
	tmpl := build(2 + rng.Intn(3))

	// Random population: per root, instantiate the template; shared
	// nodes draw from a small pool per template node.
	objs := map[object.OID]*object.Object{}
	next := object.OID(1)
	newObj := func() *object.Object {
		o := &object.Object{
			OID:   next,
			Class: cls.ID,
			Ints:  []int32{int32(rng.Intn(10)), int32(rng.Intn(1000))},
			Refs:  make([]object.OID, nRefs),
		}
		next++
		objs[o.OID] = o
		return o
	}
	pools := map[*Template][]object.OID{}
	var instantiate func(node *Template) object.OID
	instantiate = func(node *Template) object.OID {
		if node.Shared {
			pool := pools[node]
			if len(pool) > 0 && rng.Intn(2) == 0 {
				return pool[rng.Intn(len(pool))]
			}
		}
		o := newObj()
		for _, c := range node.Children {
			if !c.Required && rng.Intn(4) == 0 {
				continue // optional component absent
			}
			o.Refs[c.RefField] = instantiate(c)
		}
		if node.Shared {
			pools[node] = append(pools[node], o.OID)
		}
		return o.OID
	}
	nRoots := 5 + rng.Intn(25)
	var roots []object.OID
	for i := 0; i < nRoots; i++ {
		roots = append(roots, instantiate(tmpl))
	}
	// Store in random order.
	var all []*object.Object
	for _, o := range objs {
		all = append(all, o)
	}
	// map iteration is random but not seeded; sort by OID then shuffle
	// with rng for reproducibility.
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && all[j-1].OID > all[j].OID; j-- {
			all[j-1], all[j] = all[j], all[j-1]
		}
	}
	rng.Shuffle(len(all), func(a, b int) { all[a], all[b] = all[b], all[a] })
	for _, o := range all {
		if _, err := store.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	return &oracleWorld{store: store, tmpl: tmpl, roots: roots, objs: objs}
}

// oracleAssemble is the trivial reference implementation: recursive
// descent over references. It returns the rendered structure, or ""
// when a predicate or required-nil aborts the complex object.
func (w *oracleWorld) oracleAssemble(oid object.OID, node *Template) (string, bool) {
	o := w.objs[oid]
	if node.Pred != nil && !node.Pred.Eval(o) {
		return "", false
	}
	out := fmt.Sprintf("%d(", uint64(oid))
	for _, c := range node.Children {
		ref := o.Refs[c.RefField]
		if ref.IsNil() {
			if c.Required {
				return "", false
			}
			out += "-,"
			continue
		}
		sub, ok := w.oracleAssemble(ref, c)
		if !ok {
			return "", false
		}
		out += sub + ","
	}
	return out + ")", true
}

// render prints an Instance in the oracle's format.
func render(in *Instance) string {
	out := fmt.Sprintf("%d(", uint64(in.OID()))
	for _, c := range in.Children {
		if c == nil {
			out += "-,"
			continue
		}
		out += render(c) + ","
	}
	return out + ")"
}

func TestAssemblyMatchesOracleRandomized(t *testing.T) {
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		w := genWorld(t, rng)

		// Oracle expectations.
		want := map[object.OID]string{}
		for _, root := range w.roots {
			if s, ok := w.oracleAssemble(root, w.tmpl); ok {
				// Several roots can coincide when the root itself is
				// shared-free but generation repeated; last wins (all
				// renders identical for the same OID).
				want[root] = s
			}
		}

		for _, kind := range []SchedulerKind{DepthFirst, BreadthFirst, Elevator} {
			for _, window := range []int{1, 4, 64} {
				for _, sharingStats := range []bool{false, true} {
					opts := Options{Window: window, Scheduler: kind, UseSharingStats: sharingStats}
					op := New(oidSource(w.roots), w.store, w.tmpl, opts)
					items, err := volcano.Drain(op)
					if err != nil {
						t.Fatalf("trial %d %v/w%d/stats=%v: %v", trial, kind, window, sharingStats, err)
					}
					got := map[object.OID]string{}
					for _, it := range items {
						inst := it.(*Instance)
						got[inst.OID()] = render(inst)
					}
					if len(got) != len(want) {
						t.Fatalf("trial %d %v/w%d/stats=%v: %d complex objects, oracle %d",
							trial, kind, window, sharingStats, len(got), len(want))
					}
					for oid, w0 := range want {
						if got[oid] != w0 {
							t.Fatalf("trial %d %v/w%d/stats=%v: object %v\n got %s\nwant %s",
								trial, kind, window, sharingStats, oid, got[oid], w0)
						}
					}
				}
			}
		}
	}
}
