package btree

import (
	"testing"

	"revelation/internal/buffer"
	"revelation/internal/disk"
)

func benchTree(b *testing.B, frames int) *Tree {
	b.Helper()
	d := disk.New(0)
	pool := buffer.New(d, frames)
	tr, err := Create(pool)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func BenchmarkInsertSequential(b *testing.B) {
	tr := benchTree(b, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Insert(uint64(i), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertScattered(b *testing.B) {
	tr := benchTree(b, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Put(uint64(i)*2654435761%1<<30, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetWarm(b *testing.B) {
	tr := benchTree(b, 1024)
	const n = 100000
	for i := 0; i < n; i++ {
		if err := tr.Insert(uint64(i), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i*7919) % n
		v, ok, err := tr.Get(k)
		if err != nil || !ok || v != k {
			b.Fatalf("Get(%d) = (%d,%v,%v)", k, v, ok, err)
		}
	}
}

func BenchmarkGetColdSmallPool(b *testing.B) {
	// A 16-frame pool over a ~100k-key tree: most descents fault.
	d := disk.New(0)
	pool := buffer.New(d, 1024)
	tr, err := Create(pool)
	if err != nil {
		b.Fatal(err)
	}
	const n = 100000
	for i := 0; i < n; i++ {
		if err := tr.Insert(uint64(i), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	small := buffer.New(d, 16)
	if err := pool.FlushAll(); err != nil {
		b.Fatal(err)
	}
	cold := Open(small, tr.Root())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i*7919) % n
		if _, _, err := cold.Get(k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScan(b *testing.B) {
	tr := benchTree(b, 1024)
	const n = 50000
	for i := 0; i < n; i++ {
		if err := tr.Insert(uint64(i), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		if err := tr.Scan(0, ^uint64(0), func(uint64, uint64) bool {
			count++
			return true
		}); err != nil {
			b.Fatal(err)
		}
		if count != n {
			b.Fatalf("scan saw %d", count)
		}
	}
}

func BenchmarkDelete(b *testing.B) {
	tr := benchTree(b, 2048)
	for i := 0; i < b.N; i++ {
		if err := tr.Insert(uint64(i), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Delete(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
