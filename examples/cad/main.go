// CAD bill-of-materials: the engineering-design workload that motivates
// the paper's sharing machinery (Section 5, Section 6.4). Thousands of
// assemblies reference a small catalog of standard parts — fasteners,
// bearings — so the same sub-objects are shared by many complex
// objects. The sharing statistics in the template let the assembly
// operator build each standard part once, keep it buffered, and link
// it by reference count instead of refetching.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"revelation"
	"revelation/internal/assembly"
	"revelation/internal/stats"
	"revelation/internal/volcano"
)

const (
	assemblies    = 1500
	standardParts = 40 // tiny shared catalog: heavy sharing
)

func main() {
	eng, err := revelation.New(revelation.Config{
		DataPages:   2048,
		BufferPages: 96, // much smaller than the database
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	asmCls := eng.Catalog().MustDefine(&revelation.Class{
		Name: "Assembly", NumInts: 2, NumRefs: 4,
		IntNames: []string{"id", "mass"},
		RefNames: []string{"housing", "fastener", "bearing", "spec"},
	})
	partCls := eng.Catalog().MustDefine(&revelation.Class{
		Name: "Part", NumInts: 2, NumRefs: 0,
		IntNames: []string{"partno", "unitCost"},
	})

	rng := rand.New(rand.NewSource(3))
	next := revelation.OID(1)
	put := func(o *revelation.Object) revelation.OID {
		if _, err := eng.Put(o); err != nil {
			log.Fatal(err)
		}
		return o.OID
	}

	// The shared standard-parts catalog.
	var fasteners, bearings []revelation.OID
	for i := 0; i < standardParts; i++ {
		fasteners = append(fasteners, put(&revelation.Object{
			OID: next, Class: partCls.ID, Ints: []int32{int32(1000 + i), int32(2 + i%7)}}))
		next++
		bearings = append(bearings, put(&revelation.Object{
			OID: next, Class: partCls.ID, Ints: []int32{int32(2000 + i), int32(15 + i%11)}}))
		next++
	}

	// Each assembly: a unique housing and spec, plus shared fastener
	// and bearing drawn from the catalog.
	var roots []revelation.OID
	for i := 0; i < assemblies; i++ {
		housing := put(&revelation.Object{OID: next, Class: partCls.ID,
			Ints: []int32{int32(i), int32(50 + rng.Intn(100))}})
		next++
		spec := put(&revelation.Object{OID: next, Class: partCls.ID,
			Ints: []int32{int32(i), 0}})
		next++
		roots = append(roots, put(&revelation.Object{
			OID: next, Class: asmCls.ID,
			Ints: []int32{int32(i), int32(rng.Intn(500))},
			Refs: []revelation.OID{
				housing,
				fasteners[rng.Intn(len(fasteners))],
				bearings[rng.Intn(len(bearings))],
				spec,
			},
		}))
		next++
	}

	// Template: instead of hand-annotating the sharing statistics, run
	// the statistics collector (Section 5's annotations, derived from
	// data): it marks the fastener and bearing components shared and
	// measures their degrees; housing and spec stay unshared.
	tmpl := &revelation.Template{
		Name: "Assembly", Class: asmCls.ID, RefField: -1,
		Children: []*revelation.Template{
			{Name: "Housing", Class: partCls.ID, RefField: 0, Required: true},
			{Name: "Fastener", Class: partCls.ID, RefField: 1, Required: true},
			{Name: "Bearing", Class: partCls.ID, RefField: 2, Required: true},
			{Name: "Spec", Class: partCls.ID, RefField: 3, Required: true},
		},
	}
	reports, err := stats.CollectSharing(eng.Store, tmpl, roots, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("statistics collector (Section 5 template annotations):")
	for _, r := range reports {
		fmt.Printf("  %-10s %5d refs over %4d distinct objects -> degree %.3f shared=%v\n",
			r.Node.Name, r.Refs, r.Distinct, r.Degree, r.Node.Shared)
	}
	fmt.Println()
	degree := float64(standardParts) / float64(assemblies)

	run := func(label string, useStats bool) []*revelation.Instance {
		if err := eng.ResetMeasurements(true); err != nil {
			log.Fatal(err)
		}
		op := assembly.New(volcano.FromOIDs(roots), eng.Store, tmpl, assembly.Options{
			Window:          50,
			Scheduler:       assembly.Elevator,
			UseSharingStats: useStats,
		})
		out, err := volcano.Drain(nil, op)
		if err != nil {
			log.Fatal(err)
		}
		st := eng.DeviceStats()
		ops := op.Stats()
		fmt.Printf("%-28s %5d assembled, %6d fetches, %5d shared links, %6d reads, avg seek %6.1f\n",
			label, ops.Assembled, ops.Fetched, ops.SharedLinks, st.Reads, st.AvgSeekPerRead())
		insts := make([]*revelation.Instance, len(out))
		for i, it := range out {
			insts[i] = it.(*revelation.Instance)
		}
		return insts
	}

	fmt.Printf("CAD bill-of-materials: %d assemblies over %d standard parts (degree %.3f)\n\n",
		assemblies, standardParts, degree)
	plain := run("without sharing statistics", false)
	shared := run("with sharing statistics", true)
	fmt.Println()
	fmt.Println("the saved fetches are mostly buffer requests, and the paper's footnote 5")
	fmt.Println("is the point: \"even buffer hits can be expensive, since a table must be")
	fmt.Println("searched while protected against concurrent update\" — the shared table")
	fmt.Println("links assembled components by pointer, skipping the buffer entirely, and")
	fmt.Println("guarantees each shared part is materialized once, not once per assembly.")

	// Total cost roll-up over the assembled complex objects — complex
	// object traversal is pure pointer chasing now.
	total := func(insts []*revelation.Instance) int64 {
		var sum int64
		for _, inst := range insts {
			for _, c := range inst.Children {
				sum += int64(c.Object.Ints[1])
			}
		}
		return sum
	}
	a, b := total(plain), total(shared)
	fmt.Printf("\nBOM cost roll-up: %d (both strategies must agree: %v)\n", a, a == b)
	if a != b {
		log.Fatal("strategies disagree")
	}
}
