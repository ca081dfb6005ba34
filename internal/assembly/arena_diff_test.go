package assembly

// Differential test for the window arena: the operator's observable
// behaviour — emitted trees in emission order, Stats, and the assembly
// trace event sequence — over every scheduler × PageBatch ×
// UseSharingStats × PinWindowPages × fault policy × input kind, on the
// oracle test's random worlds, against goldens recorded with this very
// file at the commit before the arena (testdata/arena_golden.txt;
// -update-arena-golden rewrites it). Where the oracle's semantics apply
// (OID roots, no faults) the trees are also checked against it.

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"revelation/internal/disk"
	"revelation/internal/object"
	"revelation/internal/trace"
	"revelation/internal/volcano"
)

var updateArenaGolden = flag.Bool("update-arena-golden", false, "rewrite testdata/arena_golden.txt from this tree's behaviour")

const arenaGoldenPath = "testdata/arena_golden.txt"

// diffSched names a scheduler configuration of the sweep.
type diffSched struct {
	name string
	set  func(*Options)
}

var diffScheds = []diffSched{
	{"depth-first", func(o *Options) { o.Scheduler = DepthFirst }},
	{"breadth-first", func(o *Options) { o.Scheduler = BreadthFirst }},
	{"elevator", func(o *Options) { o.Scheduler = Elevator }},
	{"predicate-first", func(o *Options) { o.Scheduler = Elevator; o.PredicateFirst = true }},
	{"shard-prefetch", func(o *Options) {
		o.CustomScheduler = NewShardElevator(2, func(p disk.PageID) int { return int(p) })
	}},
}

// diffFaults pairs a fault policy with the injection it is meant for.
var diffFaults = []struct {
	name   string
	policy FaultPolicy
	cfg    disk.FaultConfig
}{
	{"fail-fast", FailFast, disk.FaultConfig{}},
	{"skip-object", SkipObject, disk.FaultConfig{Seed: 99, PermanentRate: 0.04}},
	{"retry", RetryFaults, disk.FaultConfig{Seed: 1234, TransientRate: 0.1, TransientFailures: 2}},
}

var diffInputs = []string{"oid", "object", "instance", "partial-root"}

// diffInput builds a fresh input stream of the given kind (the device
// is healthy while it reads). Instances are built new for every run:
// the operator links into them.
func (w *oracleWorld) diffInput(t *testing.T, kind string) volcano.Iterator {
	t.Helper()
	get := func(oid object.OID) *object.Object {
		o, err := w.store.Get(oid)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	// firstChild pre-assembles the root's first present child, bare.
	firstChild := func(root *object.Object) (int, *Instance) {
		for slot, ct := range w.tmpl.Children {
			if oid := root.Refs[ct.RefField]; !oid.IsNil() {
				return slot, &Instance{Object: get(oid), Node: ct, Children: make([]*Instance, len(ct.Children))}
			}
		}
		return -1, nil
	}
	items := make([]volcano.Item, len(w.roots))
	for i, r := range w.roots {
		switch kind {
		case "oid":
			items[i] = r
		case "object":
			items[i] = get(r)
		case "instance":
			ro := get(r)
			in := &Instance{Object: ro, Node: w.tmpl, Children: make([]*Instance, len(w.tmpl.Children))}
			if slot, c := firstChild(ro); c != nil && i%2 == 0 {
				c.Parent = in
				in.Children[slot] = c
			}
			items[i] = in
		case "partial-root":
			pr := PartialRoot{Root: r, Sub: map[object.OID]*Instance{}}
			if _, c := firstChild(get(r)); c != nil {
				pr.Sub[c.OID()] = c
			}
			items[i] = pr
		}
	}
	return volcano.NewSlice(items)
}

// diffRun is one operator run, rendered: every emitted tree, the error
// if any, Stats, and the trace.
func (w *oracleWorld) diffRun(t *testing.T, dev *disk.Faulty, input string, opts Options, faults disk.FaultConfig) (trees []string, text string, st Stats) {
	t.Helper()
	pool := w.store.File.Pool()
	dev.SetConfig(disk.FaultConfig{})
	in := w.diffInput(t, input)
	if err := pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	dev.ResetHead()
	dev.SetConfig(faults)
	defer dev.SetConfig(disk.FaultConfig{})

	col := trace.NewCollector()
	pool.SetTracer(trace.New(col))
	defer pool.SetTracer(nil)
	op := New(in, w.store, w.tmpl, opts)
	items, err := volcano.Drain(nil, op)
	var b strings.Builder
	for _, it := range items {
		trees = append(trees, render(it.(*Instance)))
	}
	fmt.Fprintf(&b, "%s\nerr=%v\n%+v\n", strings.Join(trees, "\n"), err, op.Stats())
	for _, e := range col.Events() {
		if e.Layer != trace.LayerAssembly {
			continue // the goldens were recorded with the operator alone traced
		}
		if opts.CustomScheduler != nil {
			// The lanes' concurrent reads leave the head wherever the
			// last one to finish put it; the lane elevator ignores it.
			e.Head = 0
		}
		fmt.Fprintf(&b, "%s/%s %d %d %d %d %s\n", e.Layer, e.Kind, e.Page, e.Head, e.OID, e.N, e.Note)
	}
	if n := pool.PinnedFrames(); n != 0 {
		t.Errorf("%d frames still pinned after the run", n)
	}
	return trees, b.String(), op.Stats()
}

func TestArenaMatchesParentGoldens(t *testing.T) {
	golden := map[string]string{}
	if !*updateArenaGolden {
		f, err := os.Open(arenaGoldenPath)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
				golden[name] = sum
			}
		}
	}
	var out strings.Builder
	var seen Stats // summed over the sweep: it must not be vacuous
	checked := 0
	for trial, window := range []int{1, 4, 16, 64} {
		dev := disk.NewFaulty(disk.New(0), disk.FaultConfig{})
		w := genWorldOn(t, rand.New(rand.NewSource(int64(1000+trial))), dev)
		var want []string // the oracle's trees, sorted
		for _, root := range w.roots {
			if s, ok := w.oracleAssemble(root, w.tmpl); ok {
				want = append(want, s)
			}
		}
		slices.Sort(want)
		for _, sched := range diffScheds {
			for _, fault := range diffFaults {
				for _, input := range diffInputs {
					// One golden line covers the eight on/off combinations
					// of the three boolean options.
					name := fmt.Sprintf("world%d/w%d/%s/%s/%s", trial, window, sched.name, fault.name, input)
					sum := sha256.New()
					for bits := 0; bits < 8; bits++ {
						opts := Options{
							Window:          window,
							FaultPolicy:     fault.policy,
							PageBatch:       bits&1 != 0,
							UseSharingStats: bits&2 != 0,
							PinWindowPages:  bits&4 != 0,
						}
						sched.set(&opts)
						trees, text, st := w.diffRun(t, dev, input, opts, fault.cfg)
						fmt.Fprintf(sum, "%d\n%s", bits, text)
						seen.Aborted += st.Aborted
						seen.Skipped += st.Skipped
						seen.FaultRetries += st.FaultRetries
						seen.SharedLinks += st.SharedLinks
						if input == "oid" && fault.policy == FailFast {
							slices.Sort(trees)
							if !slices.Equal(trees, want) {
								t.Errorf("%s bits %03b: trees differ from the oracle's", name, bits)
							}
						}
					}
					got := fmt.Sprintf("%x", sum.Sum(nil)[:12])
					fmt.Fprintf(&out, "%s %s\n", name, got)
					if !*updateArenaGolden {
						checked++
						if golden[name] != got {
							t.Errorf("%s: behaviour digest %s, golden %s", name, got, golden[name])
						}
					}
				}
			}
		}
	}
	if seen.Aborted == 0 || seen.Skipped == 0 || seen.FaultRetries == 0 || seen.SharedLinks == 0 {
		t.Errorf("the sweep never aborted, quarantined, retried or linked a shared component: %+v", seen)
	}
	t.Logf("sweep totals: %d aborted, %d quarantined, %d retries, %d shared links",
		seen.Aborted, seen.Skipped, seen.FaultRetries, seen.SharedLinks)
	if *updateArenaGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(arenaGoldenPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if checked != len(golden) {
		t.Errorf("checked %d configurations, golden file has %d", checked, len(golden))
	}
}
