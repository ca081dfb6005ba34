package volcano

import (
	"testing"

	"revelation/internal/buffer"
	"revelation/internal/disk"
	"revelation/internal/expr"
	"revelation/internal/heap"
	"revelation/internal/object"
)

func BenchmarkHeapScan(b *testing.B) {
	d := disk.New(0)
	pool := buffer.New(d, 4096)
	s := benchObjectStore(b, pool, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := Count(NewHeapScan(s.File, nil))
		if err != nil || n != 10000 {
			b.Fatalf("scan = (%d, %v)", n, err)
		}
	}
}

func BenchmarkHeapScanWithPredicate(b *testing.B) {
	d := disk.New(0)
	pool := buffer.New(d, 4096)
	s := benchObjectStore(b, pool, 10000)
	pred := expr.IntCmp{Field: 1, Op: expr.EQ, Value: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Count(NewHeapScan(s.File, pred)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashJoinBuildProbe(b *testing.B) {
	const n = 10000
	left := make([]Item, n)
	right := make([]Item, n)
	for i := 0; i < n; i++ {
		left[i] = i
		right[i] = i
	}
	key := func(it Item) (any, error) { return it.(int), nil }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := NewHashJoin(NewSlice(left), NewSlice(right), key, key)
		cnt, err := Count(j)
		if err != nil || cnt != n {
			b.Fatalf("join = (%d, %v)", cnt, err)
		}
	}
}

func BenchmarkExternalSort10k(b *testing.B) {
	const n = 10000
	vals := make([]Item, n)
	for i := range vals {
		vals[i] = (i * 7919) % n
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := disk.New(0)
		pool := buffer.New(d, 64)
		es := NewExternalSort(NewSlice(vals),
			func(a, b Item) bool { return a.(int) < b.(int) },
			intCodec{}, pool, 512)
		cnt, err := Count(es)
		if err != nil || cnt != n {
			b.Fatalf("sort = (%d, %v)", cnt, err)
		}
	}
}

func BenchmarkExchangeThroughput(b *testing.B) {
	const n = 20000
	items := make([]Item, n)
	for i := range items {
		items[i] = i
	}
	parts := PartitionSlice(items, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewExchange(4, func(part int) (Iterator, error) {
			return NewSlice(parts[part]), nil
		})
		cnt, err := Count(e)
		if err != nil || cnt != n {
			b.Fatalf("exchange = (%d, %v)", cnt, err)
		}
	}
}

// benchObjectStore builds a store of n chained objects for benchmarks.
func benchObjectStore(b *testing.B, pool *buffer.Pool, n int) *object.Store {
	b.Helper()
	f, err := heap.Create(pool, n/9+2)
	if err != nil {
		b.Fatal(err)
	}
	s := object.NewStore(f, object.NewMapLocator(), object.NewCatalog())
	for i := 1; i <= n; i++ {
		o := &object.Object{
			OID:   object.OID(i),
			Class: 1,
			Ints:  []int32{int32(i), int32(i % 10), 0, 0},
			Refs:  make([]object.OID, 8),
		}
		if _, err := s.Put(o); err != nil {
			b.Fatal(err)
		}
	}
	return s
}
