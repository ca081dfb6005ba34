package volcano

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"revelation/internal/buffer"
	"revelation/internal/disk"
	"revelation/internal/heap"
	"revelation/internal/object"
)

func ints(items []Item) []int {
	out := make([]int, len(items))
	for i, it := range items {
		out[i] = it.(int)
	}
	return out
}

func intSource(vals ...int) *Slice { return FromOIDs(vals) }

func TestSliceSource(t *testing.T) {
	got, err := Drain(nil, intSource(1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("Drain = %v", got)
	}
	s := intSource(1)
	if _, err := s.Next(); !errors.Is(err, ErrNotOpen) {
		t.Errorf("Next before Open err = %v", err)
	}
}

func TestFilter(t *testing.T) {
	f := NewFilter(intSource(1, 2, 3, 4, 5, 6), func(it Item) (bool, error) {
		return it.(int)%2 == 0, nil
	})
	got, err := Drain(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 4, 6}
	if fmt.Sprint(ints(got)) != fmt.Sprint(want) {
		t.Errorf("filter = %v, want %v", got, want)
	}
}

func TestFilterErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	f := NewFilter(intSource(1), func(Item) (bool, error) { return false, boom })
	if _, err := Drain(nil, f); !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestProject(t *testing.T) {
	p := NewProject(intSource(1, 2, 3), func(it Item) (Item, error) {
		return it.(int) * 10, nil
	})
	got, err := Drain(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 10 || got[2] != 30 {
		t.Errorf("project = %v", got)
	}
}

func TestCount(t *testing.T) {
	n, err := Count(intSource(1, 2, 3))
	if err != nil || n != 3 {
		t.Errorf("Count = (%d, %v)", n, err)
	}
}

// --- storage-backed operator tests ---

func testStore(t *testing.T, nObjects int) *object.Store {
	t.Helper()
	d := disk.New(0)
	pool := buffer.New(d, 256)
	f, err := heap.Create(pool, nObjects/9+2)
	if err != nil {
		t.Fatal(err)
	}
	s := object.NewStore(f, object.NewMapLocator(), object.NewCatalog())
	for i := 1; i <= nObjects; i++ {
		o := &object.Object{
			OID:   object.OID(i),
			Class: 1,
			Ints:  []int32{int32(i), int32(i % 10), 0, 0},
			Refs:  make([]object.OID, 8),
		}
		if i > 1 {
			o.Refs[0] = object.OID(i - 1) // chain
		}
		if _, err := s.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// objectSource reads objects 1..n back from s, in OID order or
// reversed, as the input a pointer join dereferences.
func objectSource(t *testing.T, s *object.Store, n int, reversed bool) *Slice {
	t.Helper()
	items := make([]Item, n)
	for i := range items {
		oid := object.OID(i + 1)
		if reversed {
			oid = object.OID(n - i)
		}
		o, err := s.Get(oid)
		if err != nil {
			t.Fatal(err)
		}
		items[i] = o
	}
	return NewSlice(items)
}

func TestPointerJoinNaiveAndSorted(t *testing.T) {
	s := testStore(t, 60)
	for _, mode := range []PointerJoinMode{NaivePointer, SortedPointer} {
		j := NewPointerJoin(objectSource(t, s, 60, false), s, 0, mode)
		got, err := Drain(nil, j)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		// Objects 2..60 have a non-nil ref to predecessor: 59 pairs.
		if len(got) != 59 {
			t.Fatalf("mode %d: %d pairs, want 59", mode, len(got))
		}
		for _, it := range got {
			p := it.(Pair)
			parent := p.Left.(*object.Object)
			child := p.Right.(*object.Object)
			if parent.Refs[0] != child.OID {
				t.Fatalf("mode %d: pair mismatch %v -> %v", mode, parent.OID, child.OID)
			}
		}
	}
}

func TestSortedPointerJoinFetchesInPhysicalOrder(t *testing.T) {
	s := testStore(t, 60)
	// The input runs against the physical order (newest object first),
	// so only the sort puts the fetched children in page order.
	j := NewPointerJoin(objectSource(t, s, 60, true), s, 0, SortedPointer)
	got, err := Drain(nil, j)
	if err != nil {
		t.Fatal(err)
	}
	var pages []uint32
	for _, it := range got {
		child := it.(Pair).Right.(*object.Object)
		rid, _, err := s.WhereIs(child.OID)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, uint32(rid.Page))
	}
	if !sort.SliceIsSorted(pages, func(a, b int) bool { return pages[a] < pages[b] }) {
		t.Error("sorted pointer join children not in physical order")
	}
}

func TestExchangeParallelFragments(t *testing.T) {
	parts := PartitionSlice([]Item{1, 2, 3, 4, 5, 6, 7}, 3)
	e := NewExchange(3, func(part int) (Iterator, error) {
		return NewSlice(parts[part]), nil
	})
	got, err := Drain(nil, e)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("exchange produced %d items", len(got))
	}
	sum := 0
	for _, it := range got {
		sum += it.(int)
	}
	if sum != 28 {
		t.Errorf("exchange sum = %d, want 28", sum)
	}
}

func TestExchangeErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	e := NewExchange(2, func(part int) (Iterator, error) {
		if part == 1 {
			return nil, boom
		}
		return intSource(1, 2), nil
	})
	if err := e.Open(); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sawErr := false
	for {
		_, err := e.Next()
		if errors.Is(err, Done) {
			break
		}
		if err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Error("partition error never surfaced")
	}
}

func TestExchangeEarlyClose(t *testing.T) {
	big := make([]Item, 10000)
	for i := range big {
		big[i] = i
	}
	e := NewExchange(4, func(part int) (Iterator, error) {
		return NewSlice(big), nil
	})
	if err := e.Open(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := e.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err) // must not deadlock
	}
}

func TestPartitionSlice(t *testing.T) {
	parts := PartitionSlice([]Item{1, 2, 3, 4, 5}, 2)
	if len(parts) != 2 || len(parts[0]) != 3 || len(parts[1]) != 2 {
		t.Errorf("PartitionSlice = %v", parts)
	}
	parts = PartitionSlice(nil, 0)
	if len(parts) != 1 {
		t.Errorf("degenerate partition = %v", parts)
	}
}
