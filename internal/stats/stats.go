// Package stats collects the statistical annotations the assembly
// templates carry (Section 5 of the paper), here the degree of sharing
// between objects, and the fault report of one assembly run. The paper
// assumes the statistics exist; this package derives them from the
// data, the way a Revelation statistics pass would.
package stats

import (
	"errors"
	"fmt"

	"revelation/internal/assembly"
	"revelation/internal/object"
)

// SharingReport describes one template node's observed sharing.
type SharingReport struct {
	Node *assembly.Template
	// Refs counts references that reached the node in the sample.
	Refs int
	// Distinct counts distinct target objects.
	Distinct int
	// Degree is Distinct/Refs — the paper's "ratio of shared objects
	// to sharing objects" (1.0 means no sharing).
	Degree float64
}

// SharedThreshold is the degree below which CollectSharing marks a
// node shared: below it, a meaningful fraction of references point at
// common objects.
const SharedThreshold = 0.95

// CollectSharing samples up to `sample` complex objects (all of them
// when sample <= 0), measures the sharing degree at every template
// node, and writes Shared/SharingDegree annotations back into the
// template. It returns the per-node reports in template walk order.
func CollectSharing(store *object.Store, tmpl *assembly.Template, roots []object.OID, sample int) ([]SharingReport, error) {
	if tmpl == nil {
		return nil, errors.New("stats: nil template")
	}
	if sample <= 0 || sample > len(roots) {
		sample = len(roots)
	}
	type acc struct {
		refs    int
		targets map[object.OID]bool
	}
	counts := map[*assembly.Template]*acc{}
	tmpl.Walk(func(n *assembly.Template, _ int) {
		counts[n] = &acc{targets: map[object.OID]bool{}}
	})

	var visit func(oid object.OID, node *assembly.Template) error
	visit = func(oid object.OID, node *assembly.Template) error {
		a := counts[node]
		a.refs++
		a.targets[oid] = true
		o, err := store.Get(oid)
		if err != nil {
			return fmt.Errorf("stats: %v: %w", oid, err)
		}
		for _, c := range node.Children {
			if c.RefField >= len(o.Refs) {
				continue
			}
			ref := o.Refs[c.RefField]
			if ref.IsNil() {
				continue
			}
			if err := visit(ref, c); err != nil {
				return err
			}
		}
		return nil
	}
	for _, root := range roots[:sample] {
		if err := visit(root, tmpl); err != nil {
			return nil, err
		}
	}

	var reports []SharingReport
	tmpl.Walk(func(n *assembly.Template, _ int) {
		a := counts[n]
		degree := 1.0
		if a.refs > 0 {
			degree = float64(len(a.targets)) / float64(a.refs)
		}
		// The root is referenced once per complex object by
		// definition; only annotate real component nodes.
		if n != tmpl {
			n.Shared = degree < SharedThreshold
			if n.Shared {
				n.SharingDegree = degree
			} else {
				n.SharingDegree = 0
			}
		}
		reports = append(reports, SharingReport{
			Node:     n,
			Refs:     a.refs,
			Distinct: len(a.targets),
			Degree:   degree,
		})
	})
	return reports, nil
}
