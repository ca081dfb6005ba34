package volcano

import (
	"errors"
	"testing"

	"revelation/internal/object"
)

// failing is an iterator that errs at a chosen point.
type failing struct {
	failOpen  bool
	failAt    int // Next index to fail at (-1 never)
	failClose bool
	n         int
	items     []Item
}

var errInjected = errors.New("injected")

func (f *failing) Open() error {
	if f.failOpen {
		return errInjected
	}
	return nil
}

func (f *failing) Next() (Item, error) {
	if f.failAt >= 0 && f.n == f.failAt {
		return nil, errInjected
	}
	if f.n >= len(f.items) {
		return nil, Done
	}
	item := f.items[f.n]
	f.n++
	return item, nil
}

func (f *failing) Close() error {
	if f.failClose {
		return errInjected
	}
	return nil
}

func items(n int) []Item {
	out := make([]Item, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// nilRefObjects builds n objects whose reference field 0 is nil, so a
// pointer join reads past them without touching a store.
func nilRefObjects(n int) []Item {
	out := make([]Item, n)
	for i := range out {
		out[i] = &object.Object{OID: object.OID(i + 1), Refs: []object.OID{object.NilOID}}
	}
	return out
}

func TestOpenErrorsPropagate(t *testing.T) {
	cases := map[string]Iterator{
		"filter":         NewFilter(&failing{failOpen: true}, func(Item) (bool, error) { return true, nil }),
		"project":        NewProject(&failing{failOpen: true}, func(it Item) (Item, error) { return it, nil }),
		"pointer-naive":  NewPointerJoin(&failing{failOpen: true}, nil, 0, NaivePointer),
		"pointer-sorted": NewPointerJoin(&failing{failOpen: true}, nil, 0, SortedPointer),
	}
	for name, it := range cases {
		if err := it.Open(); !errors.Is(err, errInjected) {
			t.Errorf("%s: Open err = %v, want injected", name, err)
		}
	}
}

func TestMidStreamErrorsPropagate(t *testing.T) {
	mk := func() *failing { return &failing{failAt: 2, items: items(10)} }
	cases := map[string]Iterator{
		"filter":  NewFilter(mk(), func(Item) (bool, error) { return true, nil }),
		"project": NewProject(mk(), func(it Item) (Item, error) { return it, nil }),
		"pointer-naive": NewPointerJoin(&failing{failAt: 2, items: nilRefObjects(10)},
			nil, 0, NaivePointer),
	}
	for name, it := range cases {
		if _, err := Drain(nil, it); !errors.Is(err, errInjected) {
			t.Errorf("%s: drain err = %v, want injected", name, err)
		}
	}
	// The sorted pointer join blocks on its whole input, so it hits the
	// error at Open.
	sorted := NewPointerJoin(&failing{failAt: 2, items: nilRefObjects(10)}, nil, 0, SortedPointer)
	if err := sorted.Open(); !errors.Is(err, errInjected) {
		t.Errorf("pointer-sorted: Open err = %v, want injected", err)
	}
}

func TestPointerJoinTypeError(t *testing.T) {
	j := NewPointerJoin(NewSlice(items(1)), nil, 0, NaivePointer)
	if _, err := Drain(nil, j); err == nil {
		t.Error("non-object input accepted")
	}
}
