package volcano

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"revelation/internal/btree"
	"revelation/internal/buffer"
	"revelation/internal/disk"
	"revelation/internal/expr"
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
	got, err := Drain(intSource(1, 2, 3))
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
	got, err := Drain(f)
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
	if _, err := Drain(f); !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestProject(t *testing.T) {
	p := NewProject(intSource(1, 2, 3), func(it Item) (Item, error) {
		return it.(int) * 10, nil
	})
	got, err := Drain(p)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 10 || got[2] != 30 {
		t.Errorf("project = %v", got)
	}
}

func TestLimit(t *testing.T) {
	got, err := Drain(NewLimit(intSource(1, 2, 3, 4), 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("limit = %v", got)
	}
	got, err = Drain(NewLimit(intSource(1), 5))
	if err != nil || len(got) != 1 {
		t.Errorf("limit beyond input = %v, %v", got, err)
	}
}

func TestMaterialize(t *testing.T) {
	m := NewMaterialize(intSource(3, 1, 2))
	got, err := Drain(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Errorf("materialize = %v", got)
	}
}

func TestSort(t *testing.T) {
	s := NewSort(intSource(3, 1, 2, 5, 4), func(a, b Item) bool { return a.(int) < b.(int) })
	got, err := Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range ints(got) {
		if v != i+1 {
			t.Fatalf("sort = %v", got)
		}
	}
}

func TestCount(t *testing.T) {
	n, err := Count(intSource(1, 2, 3))
	if err != nil || n != 3 {
		t.Errorf("Count = (%d, %v)", n, err)
	}
}

func TestHashJoin(t *testing.T) {
	left := intSource(1, 2, 3, 4)
	right := intSource(20, 30, 30, 50)
	j := NewHashJoin(left, right,
		func(it Item) (any, error) { return it.(int) * 10, nil },
		func(it Item) (any, error) { return it.(int), nil })
	got, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	// 2 joins with 20; 3 joins with both 30s.
	if len(got) != 3 {
		t.Fatalf("hash join produced %d pairs: %v", len(got), got)
	}
	counts := map[int]int{}
	for _, it := range got {
		counts[it.(Pair).Left.(int)]++
	}
	if counts[2] != 1 || counts[3] != 2 {
		t.Errorf("join multiplicity wrong: %v", counts)
	}
}

func TestNestedLoopsNonEqui(t *testing.T) {
	j := NewNestedLoops(intSource(1, 5), intSource(2, 4, 6),
		func(l, r Item) (bool, error) { return l.(int) < r.(int), nil })
	got, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	// 1 < {2,4,6}: 3 pairs; 5 < {6}: 1 pair.
	if len(got) != 4 {
		t.Errorf("nested loops = %d pairs", len(got))
	}
}

func TestOneToOneMatch(t *testing.T) {
	m := NewOneToOneMatch(intSource(1, 2), intSource(10, 20),
		func(l, r Item) (Item, error) { return l.(int) + r.(int), nil })
	got, err := Drain(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 11 || got[1] != 22 {
		t.Errorf("match = %v", got)
	}
	// Length mismatch is an error.
	m2 := NewOneToOneMatch(intSource(1), intSource(1, 2),
		func(l, r Item) (Item, error) { return nil, nil })
	if _, err := Drain(m2); err == nil {
		t.Error("length mismatch not detected")
	}
}

func TestHashAggregate(t *testing.T) {
	agg := NewHashAggregate(intSource(1, 2, 3, 4, 5, 6),
		func(it Item) (any, error) { return it.(int) % 2, nil },
		CountAgg(),
		SumIntAgg("sum", func(it Item) (int64, error) { return int64(it.(int)), nil }),
		MinIntAgg("min", func(it Item) (int64, error) { return int64(it.(int)), nil }),
		MaxIntAgg("max", func(it Item) (int64, error) { return int64(it.(int)), nil }),
	)
	got, err := Drain(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("groups = %d", len(got))
	}
	for _, it := range got {
		g := it.(Group)
		switch g.Key.(int) {
		case 1: // odds: 1,3,5
			if g.Aggs[0].(int) != 3 || g.Aggs[1].(int64) != 9 || g.Aggs[2].(int64) != 1 || g.Aggs[3].(int64) != 5 {
				t.Errorf("odd group = %+v", g)
			}
		case 0: // evens: 2,4,6
			if g.Aggs[0].(int) != 3 || g.Aggs[1].(int64) != 12 || g.Aggs[2].(int64) != 2 || g.Aggs[3].(int64) != 6 {
				t.Errorf("even group = %+v", g)
			}
		default:
			t.Errorf("unexpected key %v", g.Key)
		}
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

func TestHeapScanAll(t *testing.T) {
	s := testStore(t, 100)
	got, err := Drain(NewHeapScan(s.File, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Errorf("heap scan saw %d objects", len(got))
	}
	if _, ok := got[0].(*object.Object); !ok {
		t.Errorf("heap scan item type %T", got[0])
	}
}

func TestHeapScanWithPredicate(t *testing.T) {
	s := testStore(t, 100)
	pred := expr.IntCmp{Field: 1, Op: expr.EQ, Value: 3}
	got, err := Drain(NewHeapScan(s.File, pred))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 { // i % 10 == 3 for 10 of 100
		t.Errorf("predicate scan saw %d objects, want 10", len(got))
	}
}

func TestObjectFilter(t *testing.T) {
	s := testStore(t, 50)
	f := NewObjectFilter(NewHeapScan(s.File, nil), expr.IntCmp{Field: 0, Op: expr.LE, Value: 5})
	got, err := Drain(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Errorf("object filter saw %d", len(got))
	}
	// Wrong item type errors.
	bad := NewObjectFilter(intSource(1), expr.True{})
	if _, err := Drain(bad); err == nil {
		t.Error("object filter accepted non-object item")
	}
}

func TestIndexScan(t *testing.T) {
	d := disk.New(0)
	pool := buffer.New(d, 256)
	f, err := heap.Create(pool, 16)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := btree.Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	s := object.NewStore(f, object.NewBTreeLocator(tr), object.NewCatalog())
	for i := 1; i <= 100; i++ {
		o := &object.Object{OID: object.OID(i), Class: 1, Ints: []int32{int32(i)}}
		if _, err := s.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Drain(NewIndexScan(s, 10, 19, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("index scan saw %d, want 10", len(got))
	}
	// Key order.
	for i, it := range got {
		if it.(*object.Object).OID != object.OID(10+i) {
			t.Errorf("index scan out of order at %d: %v", i, it.(*object.Object).OID)
		}
	}
	// Map locator is rejected.
	s2 := testStore(t, 10)
	if err := NewIndexScan(s2, 1, 5, nil).Open(); err == nil {
		t.Error("IndexScan accepted a map locator")
	}
}

func TestPointerJoinNaiveAndSorted(t *testing.T) {
	s := testStore(t, 60)
	for _, mode := range []PointerJoinMode{NaivePointer, SortedPointer} {
		scan := NewHeapScan(s.File, nil)
		j := NewPointerJoin(scan, s, 0, mode)
		got, err := Drain(j)
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
	dev := s.File.Pool().Device()
	// Flush stats, run sorted join, confirm reads are monotone by
	// checking total seek is small relative to naive random order.
	// With a sequential chain layout both are similar, so instead
	// verify the stronger property directly: the sorted mode's output
	// children appear in physical page order.
	j := NewPointerJoin(NewHeapScan(s.File, nil), s, 0, SortedPointer)
	got, err := Drain(j)
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
	_ = dev
}

func TestExchangeParallelFragments(t *testing.T) {
	parts := PartitionSlice([]Item{1, 2, 3, 4, 5, 6, 7}, 3)
	e := NewExchange(3, func(part int) (Iterator, error) {
		return NewSlice(parts[part]), nil
	})
	got, err := Drain(e)
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

// intCodec serializes ints for the external sort.
type intCodec struct{}

func (intCodec) Encode(it Item) ([]byte, error) {
	v := it.(int)
	return []byte(fmt.Sprintf("%d", v)), nil
}

func (intCodec) Decode(b []byte) (Item, error) {
	var v int
	_, err := fmt.Sscanf(string(b), "%d", &v)
	return v, err
}

func TestExternalSort(t *testing.T) {
	d := disk.New(0)
	pool := buffer.New(d, 32)
	const n = 5000
	vals := make([]Item, n)
	for i := range vals {
		vals[i] = (i * 7919) % n // pseudo-random permutation
	}
	es := NewExternalSort(NewSlice(vals),
		func(a, b Item) bool { return a.(int) < b.(int) },
		intCodec{}, pool, 100) // 50 runs
	got, err := Drain(es)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("external sort produced %d of %d", len(got), n)
	}
	for i, it := range got {
		if it.(int) != i {
			t.Fatalf("external sort out of order at %d: %v", i, it)
		}
	}
	if pool.PinnedFrames() != 0 {
		t.Error("external sort leaked pins")
	}
}

func TestExternalSortEmptyAndSingleRun(t *testing.T) {
	d := disk.New(0)
	pool := buffer.New(d, 8)
	es := NewExternalSort(NewSlice(nil), func(a, b Item) bool { return a.(int) < b.(int) }, intCodec{}, pool, 10)
	got, err := Drain(es)
	if err != nil || len(got) != 0 {
		t.Errorf("empty external sort = (%v, %v)", got, err)
	}
	es = NewExternalSort(intSource(3, 1, 2), func(a, b Item) bool { return a.(int) < b.(int) }, intCodec{}, pool, 10)
	got, err = Drain(es)
	if err != nil || len(got) != 3 || got[0] != 1 {
		t.Errorf("single-run external sort = (%v, %v)", got, err)
	}
}
