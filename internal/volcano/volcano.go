// Package volcano implements the set processor of the reproduction: a
// demand-driven dataflow query engine in the style of the Volcano
// system the paper builds on (Section 3). Every operator provides the
// uniform iterator interface — open, next, close — and query plans are
// trees of operators pulling items from their inputs.
//
// The assembly operator (package assembly) is one more physical
// operator in this algebra; this package supplies the rest that plans
// use: in-memory sources, selection, projection, the exchange operator
// that encapsulates parallelism exactly as Volcano does, and the
// pointer join the paper compares assembly against (Section 4).
package volcano

import (
	"errors"
	"fmt"
)

// Item is the unit of dataflow: a storage object, an assembled complex
// object, an OID, or any row-like value an operator produces.
type Item = any

// Done is returned by Next when the stream is exhausted. It is not an
// error condition.
var Done = errors.New("volcano: done")

// ErrNotOpen is returned by Next on an unopened iterator.
var ErrNotOpen = errors.New("volcano: iterator not open")

// Iterator is the uniform operator interface (open/next/close).
// Implementations must tolerate Close without Open and repeated Close.
type Iterator interface {
	// Open prepares the operator and its inputs for producing items.
	Open() error
	// Next produces the next item, or Done when exhausted.
	Next() (Item, error)
	// Close releases resources. The iterator cannot be reused.
	Close() error
}

// Count drains the iterator and returns only the item count.
func Count(it Iterator) (int, error) {
	if err := it.Open(); err != nil {
		return 0, err
	}
	defer it.Close()
	n := 0
	for {
		_, err := it.Next()
		if errors.Is(err, Done) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}

// Slice is a source operator over a fixed in-memory item slice. When
// bound to a context (see Bind), Next observes cancellation, so even a
// pure in-memory plan stops promptly.
type Slice struct {
	boundCtx
	items []Item
	pos   int
	open  bool
}

// NewSlice builds a source over items (not copied).
func NewSlice(items []Item) *Slice { return &Slice{items: items} }

// FromOIDs is a convenience source over a slice of values of any type,
// boxing each element as an Item.
func FromOIDs[T any](vals []T) *Slice {
	items := make([]Item, len(vals))
	for i, v := range vals {
		items[i] = v
	}
	return &Slice{items: items}
}

// Open implements Iterator.
func (s *Slice) Open() error {
	s.pos = 0
	s.open = true
	return nil
}

// Next implements Iterator.
func (s *Slice) Next() (Item, error) {
	if !s.open {
		return nil, ErrNotOpen
	}
	if err := s.err(); err != nil {
		return nil, err
	}
	if s.pos >= len(s.items) {
		return nil, Done
	}
	item := s.items[s.pos]
	s.pos++
	return item, nil
}

// Close implements Iterator.
func (s *Slice) Close() error {
	s.open = false
	return nil
}

// typeError builds the standard operator type-mismatch error.
func typeError(op string, item Item) error {
	return fmt.Errorf("volcano: %s: unexpected item type %T", op, item)
}
