package assembly

import "revelation/internal/object"

// The component iterator is the assembly operator's companion routine
// (Section 5): it interprets the template against a fetched or adopted
// component to determine "what part of a complex object to assemble,
// when assembly is complete [and] how to find unresolved references
// within a newly retrieved object."

// discoverAndDispatch hands the scheduler the unresolved references of
// one instance (and, with deep, of its resolved descendants) as one
// batch in left-to-right field order. It reports whether a nil
// reference under a Required child asks for the complex object to be
// abandoned; nothing is dispatched then, nor on error.
func (op *Operator) discoverAndDispatch(item *workItem, root *Instance, deep, abortOnRequiredNil bool) (aborted bool, err error) {
	op.scratch = op.scratch[:0]
	aborted, err = op.discover(item, root, deep, abortOnRequiredNil)
	if err == nil && !aborted {
		op.dispatch(op.scratch...)
	}
	clear(op.scratch) // an aborted item's references are never cleared: do not pin its chunks
	return aborted, err
}

// discover appends in's unresolved references to op.scratch.
//
// abortOnRequiredNil applies the freshly-fetched semantics: a nil
// reference under a Required template child abandons the complex
// object. Adopted (pre-assembled) subtrees skip that check — their
// absent children were vetted when they were first assembled.
func (op *Operator) discover(item *workItem, in *Instance, deep, abortOnRequiredNil bool) (aborted bool, err error) {
	for slot, ct := range in.Node.Children {
		if child := in.Children[slot]; child != nil {
			if deep {
				if aborted, err = op.discover(item, child, deep, abortOnRequiredNil); aborted || err != nil {
					return aborted, err
				}
			}
			continue
		}
		oid := object.NilOID
		if ct.RefField < len(in.Object.Refs) {
			if oid = in.Object.Refs[ct.RefField]; oid.IsNil() {
				op.stats.NilRefs++
				op.cells.nilRefs.Inc()
			}
		}
		if oid.IsNil() {
			if abortOnRequiredNil && ct.Required {
				return true, nil
			}
			continue
		}
		r, err := op.prepareRef(item, in, slot, ct, oid)
		if err != nil {
			return false, err
		}
		op.scratch = append(op.scratch, r)
	}
	return false, nil
}
