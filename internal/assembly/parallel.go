package assembly

import (
	"revelation/internal/object"
	"revelation/internal/volcano"
)

// NewParallel runs `degree` assembly operators over disjoint
// partitions of the root references, behind Volcano's exchange
// operator — the Section 7 parallelization: "parallelism is
// encapsulated in Volcano, it can be used for all existing operators
// without changing their code". Each clone keeps its own window,
// scheduler, and shared table; the storage layer (buffer pool and
// device) is shared and internally synchronized, so clones contend for
// the head exactly as the paper warns ("each assumes sole control of
// the device"). The paper's remedy, a server per device that batches
// every clone's requests into one SCAN order, is the reference model
// in internal/disk's server_test.go.
//
// Output order across partitions is nondeterministic.
func NewParallel(roots []object.OID, store *object.Store, tmpl *Template, opts Options, degree int) volcano.Iterator {
	if degree < 1 {
		degree = 1
	}
	items := make([]volcano.Item, len(roots))
	for i, r := range roots {
		items[i] = r
	}
	parts := volcano.PartitionSlice(items, degree)
	return volcano.NewExchange(degree, func(part int) (volcano.Iterator, error) {
		return New(volcano.NewSlice(parts[part]), store, tmpl, opts), nil
	})
}
