package assembly

import (
	"math"

	"revelation/internal/buffer"
	"revelation/internal/object"
)

// sharedTable tracks assembled shared components across the window
// (Section 5): a component marked Shared in the template is assembled
// once, kept alive by reference counting, and linked — not refetched —
// when another complex object reaches it. The template's sharing
// degree predicts how many references each shared object will serve;
// while references remain expected, the object's page is hinted sticky
// in the buffer so replacement passes it over ("prevent shared objects
// from being flushed out of the buffer", Section 6.4).
type sharedTable struct {
	pool    *buffer.Pool
	entries map[object.OID]sharedEntry // by value: a registration allocates nothing past the map's growth
}

type sharedEntry struct {
	inst *Instance
	// expected is the estimate of references still to come, derived
	// from the sharing degree; the entry (and its sticky hint) is
	// dropped when it reaches zero.
	expected int
}

// expectedReferences converts a sharing degree into the expected
// number of parents per shared object: degree = shared/sharing, so
// each shared object serves about 1/degree references.
func expectedReferences(degree float64) int {
	if degree <= 0 || degree > 1 {
		return 1
	}
	return int(math.Round(1 / degree))
}

// lookup returns a previously assembled shared instance, consuming one
// expected reference; the last drops the entry and its buffer hint. The
// boolean reports a hit.
func (st *sharedTable) lookup(oid object.OID) (*Instance, bool) {
	e, ok := st.entries[oid]
	if !ok {
		return nil, false
	}
	if e.expected--; e.expected > 0 {
		st.entries[oid] = e
	} else {
		delete(st.entries, oid)
		st.pool.SetSticky(e.inst.page, false)
	}
	return e.inst, true
}

// register records a freshly assembled shared instance.
func (st *sharedTable) register(inst *Instance, node *Template) {
	exp := expectedReferences(node.SharingDegree) - 1 // one reference just consumed
	if exp <= 0 {
		return
	}
	st.entries[inst.OID()] = sharedEntry{inst: inst, expected: exp}
	st.pool.SetSticky(inst.page, true)
}
