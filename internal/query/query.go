// Package query is a miniature of the Revelation flow in the paper's
// Figure 1: a query over a set of complex objects "can be executed
// naively within the run-time system or it can be revealed" — rewritten
// into a physical plan whose data preparation is the assembly operator.
//
// A Query names the complex-object shape (a template), the extent (the
// root references), per-component predicates the revealer may push into
// the template (with their selectivities), and an arbitrary residual
// condition over the assembled complex object — the part that is "not
// algebraically expressible" (Section 4), like the paper's
// latitude/longitude distance computation.
//
// Execute it two ways:
//
//   - Naive: object-at-a-time recursive traversal, the way a compiled
//     method runs; components are fetched in method order and every
//     complex object is fully traversed before the next is considered.
//   - Reveal: builds a Volcano plan — assembly operator with the
//     predicates pushed into the template (predicate-first
//     scheduling), then a residual filter.
//
// Both produce the same result set; the plans differ in disk behaviour.
package query

import (
	"errors"
	"fmt"

	"revelation/internal/assembly"
	"revelation/internal/expr"
	"revelation/internal/object"
	"revelation/internal/volcano"
)

// Query is a selection over a set of complex objects.
type Query struct {
	// Template is the complex-object shape the query traverses.
	Template *assembly.Template
	// Roots is the extent: the root references of the candidate set.
	Roots []object.OID
	// NodePreds maps template node names to predicates on that
	// component — the algebraically expressible part, eligible for
	// push-down by the revealer.
	NodePreds map[string]expr.Predicate
	// Where is the residual condition over the assembled complex
	// object; nil means "no residual".
	Where func(*assembly.Instance) bool
}

// validate checks the query shape against the template.
func (q *Query) validate() error {
	if q.Template == nil {
		return errors.New("query: no template")
	}
	for name := range q.NodePreds {
		if q.Template.FindByName(name) == nil {
			return fmt.Errorf("query: predicate on unknown component %q", name)
		}
	}
	return nil
}

// NaiveExec runs the query object-at-a-time: each complex object is
// assembled by recursive traversal in field order (the compiled-method
// order), then the predicates and residual are evaluated. This is the
// baseline the paper's introduction criticizes: fetch order is fixed by
// the method text, not by physical layout, and predicate evaluation
// happens only once the object is in memory.
func NaiveExec(store *object.Store, q *Query) ([]*assembly.Instance, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	var out []*assembly.Instance
	for _, root := range q.Roots {
		inst, err := naiveAssemble(store, root, q.Template)
		if err != nil {
			return nil, err
		}
		if inst == nil {
			continue // a required component was missing
		}
		if !naivePasses(inst, q) {
			continue
		}
		out = append(out, inst)
	}
	return out, nil
}

// naiveAssemble is the depth-first recursive fetch a method performs.
func naiveAssemble(store *object.Store, oid object.OID, node *assembly.Template) (*assembly.Instance, error) {
	o, err := store.Get(oid)
	if err != nil {
		return nil, fmt.Errorf("query: fetch %v: %w", oid, err)
	}
	inst := &assembly.Instance{
		Object:   o,
		Node:     node,
		Children: make([]*assembly.Instance, len(node.Children)),
	}
	for slot, ct := range node.Children {
		if ct.RefField >= len(o.Refs) {
			if ct.Required {
				return nil, nil
			}
			continue
		}
		ref := o.Refs[ct.RefField]
		if ref.IsNil() {
			if ct.Required {
				return nil, nil
			}
			continue
		}
		child, err := naiveAssemble(store, ref, ct)
		if err != nil {
			return nil, err
		}
		if child == nil {
			return nil, nil
		}
		child.Parent = inst
		inst.Children[slot] = child
	}
	return inst, nil
}

// naivePasses applies node predicates and the residual to a fully
// assembled complex object.
func naivePasses(inst *assembly.Instance, q *Query) bool {
	pass := true
	inst.Walk(func(in *assembly.Instance) {
		if !pass {
			return
		}
		if p, ok := q.NodePreds[in.Node.Name]; ok && !p.Eval(in.Object) {
			pass = false
		}
	})
	if !pass {
		return false
	}
	return q.Where == nil || q.Where(inst)
}

// Reveal rewrites the query into a physical Volcano plan: the node
// predicates are pushed into a cloned template (selective assembly
// with early abort and predicate-first scheduling), the assembly
// operator prepares the complex objects, and a residual filter applies
// Where. Use volcano.Explain on the result to see the plan.
func Reveal(store *object.Store, q *Query, opts assembly.Options) (volcano.Iterator, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	tmpl := q.Template.Clone()
	for name, pred := range q.NodePreds {
		node := tmpl.FindByName(name)
		if node.Pred != nil {
			node.Pred = expr.And{Preds: []expr.Predicate{node.Pred, pred}}
		} else {
			node.Pred = pred
		}
	}
	if len(q.NodePreds) > 0 {
		opts.PredicateFirst = true
	}
	var plan volcano.Iterator = assembly.New(volcano.FromOIDs(q.Roots), store, tmpl, opts)
	if q.Where != nil {
		plan = volcano.NewFilter(plan, func(item volcano.Item) (bool, error) {
			inst, ok := item.(*assembly.Instance)
			if !ok {
				return false, fmt.Errorf("query: plan produced %T", item)
			}
			return q.Where(inst), nil
		})
	}
	return plan, nil
}

// RevealExec is Reveal followed by a full drain, returning instances.
func RevealExec(store *object.Store, q *Query, opts assembly.Options) ([]*assembly.Instance, error) {
	plan, err := Reveal(store, q, opts)
	if err != nil {
		return nil, err
	}
	items, err := volcano.Drain(nil, plan)
	if err != nil {
		return nil, err
	}
	out := make([]*assembly.Instance, len(items))
	for i, it := range items {
		out[i] = it.(*assembly.Instance)
	}
	return out, nil
}
