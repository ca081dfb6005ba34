// Package assembly implements the paper's contribution: the assembly
// operator of the Volcano query processing system (Keller, Graefe,
// Maier, SIGMOD 1991). The operator translates a *set* of complex
// objects from their disk representation into a pointer-swizzled
// in-memory representation, working on a sliding window of W complex
// objects at once and choosing the next inter-object reference to
// resolve with a pluggable scheduling policy (depth-first =
// object-at-a-time, breadth-first, or elevator/SCAN by physical page).
//
// A Template (Section 5) drives the operator: it mirrors the structure
// of the complex objects, annotated with sharing statistics and
// predicates with selectivities. The component iterator interprets the
// template to decide which reference fields of a newly fetched object
// are unresolved references, when a complex object is complete, and
// when a predicate allows aborting early.
package assembly

import (
	"errors"
	"fmt"

	"revelation/internal/expr"
	"revelation/internal/object"
)

// Template is one node of the assembly template: the shape of the
// complex objects to assemble plus the statistical annotations of
// Section 5 (degree of sharing, predicates with selectivity).
type Template struct {
	// Name labels the node in plans and traces ("Person", "Residence").
	Name string
	// Class restricts the node to a class; zero accepts any class.
	Class object.ClassID
	// RefField is the reference slot of the *parent* object that leads
	// to this component. Ignored (and conventionally -1) on the root.
	RefField int
	// Required aborts the complex object when the parent's reference
	// is nil. Optional components simply stay absent.
	Required bool
	// Pred, when set, is evaluated as soon as the component is
	// fetched; failure aborts assembly of the whole complex object
	// (selective assembly, Section 6.5).
	Pred expr.Predicate
	// Shared marks a component that may be shared between complex
	// objects (Section 5: the template "indicates borders of shared
	// components").
	Shared bool
	// SharingDegree is the template's sharing statistic: the ratio of
	// shared objects to sharing objects (0.05 means 100 objects share
	// 5 sub-objects, i.e. each shared object serves ~20 references).
	SharingDegree float64
	// Children are the component's sub-components.
	Children []*Template
}

// Validate checks structural sanity: child reference fields must be
// distinct and non-negative, sharing degrees must lie in [0, 1], and —
// when a catalog is supplied — reference fields must exist on the
// node's class. It is called by the operator at Open.
func (t *Template) Validate(cat *object.Catalog) error {
	if t == nil {
		return errors.New("assembly: nil template node")
	}
	if t.SharingDegree < 0 || t.SharingDegree > 1 {
		return fmt.Errorf("assembly: node %q sharing degree %v outside [0,1]", t.Name, t.SharingDegree)
	}
	seen := map[int]bool{}
	for _, c := range t.Children {
		if c == nil {
			return fmt.Errorf("assembly: node %q has a nil child", t.Name)
		}
		if c.RefField < 0 {
			return fmt.Errorf("assembly: node %q child %q has negative ref field", t.Name, c.Name)
		}
		if seen[c.RefField] {
			return fmt.Errorf("assembly: node %q reuses ref field %d", t.Name, c.RefField)
		}
		seen[c.RefField] = true
		if cat != nil && t.Class != 0 {
			cls, ok := cat.ByID(t.Class)
			if !ok {
				return fmt.Errorf("assembly: node %q names unknown class %d", t.Name, t.Class)
			}
			if c.RefField >= cls.NumRefs {
				return fmt.Errorf("assembly: node %q (class %s) has no ref field %d", t.Name, cls.Name, c.RefField)
			}
		}
		if err := c.Validate(cat); err != nil {
			return err
		}
	}
	return nil
}

// Nodes counts the template nodes (the component count of one fully
// present complex object).
func (t *Template) Nodes() int {
	n := 1
	for _, c := range t.Children {
		n += c.Nodes()
	}
	return n
}

// Walk visits every node depth-first, parents before children.
func (t *Template) Walk(fn func(node *Template, depth int)) {
	t.walk(fn, 0)
}

func (t *Template) walk(fn func(*Template, int), depth int) {
	fn(t, depth)
	for _, c := range t.Children {
		c.walk(fn, depth+1)
	}
}

// subtreeRejectivity estimates the probability that the subtree rooted
// here rejects the complex object (used by the predicate-first
// scheduler): 1 - product of selectivities of all predicates below.
func (t *Template) subtreeRejectivity() float64 {
	pass := 1.0
	t.Walk(func(n *Template, _ int) {
		if n.Pred != nil {
			pass *= n.Pred.Selectivity()
		}
	})
	return 1 - pass
}

// String renders the template structure with annotations.
func (t *Template) String() string {
	out := ""
	t.Walk(func(n *Template, depth int) {
		for i := 0; i < depth; i++ {
			out += "  "
		}
		out += n.Name
		if n.Shared {
			out += fmt.Sprintf(" [shared %.2f]", n.SharingDegree)
		}
		if n.Pred != nil {
			out += fmt.Sprintf(" [pred %s sel=%.2f]", n.Pred, n.Pred.Selectivity())
		}
		out += "\n"
	})
	return out
}

// Clone deep-copies the template tree (predicates and statistics are
// copied by reference/value). Benchmarks clone a generator's template
// before attaching experiment-specific predicates.
func (t *Template) Clone() *Template {
	if t == nil {
		return nil
	}
	cp := *t
	cp.Children = make([]*Template, len(t.Children))
	for i, c := range t.Children {
		cp.Children[i] = c.Clone()
	}
	return &cp
}

// FindByName returns the first node with the given name, depth-first,
// or nil.
func (t *Template) FindByName(name string) *Template {
	var found *Template
	t.Walk(func(n *Template, _ int) {
		if found == nil && n.Name == name {
			found = n
		}
	})
	return found
}
