package heap

import (
	"testing"

	"revelation/internal/buffer"
	"revelation/internal/disk"
)

func benchFile(b *testing.B, pages, frames int) *File {
	b.Helper()
	d := disk.New(0)
	pool := buffer.New(d, frames)
	f, err := Create(pool, pages)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

func BenchmarkInsertSequentialFill(b *testing.B) {
	f := benchFile(b, b.N/9+2, 64)
	rec := make([]byte, 96)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Insert(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetWarm(b *testing.B) {
	f := benchFile(b, 128, 256)
	rec := make([]byte, 96)
	var rids []RID
	for {
		rid, err := f.Insert(rec)
		if err != nil {
			break
		}
		rids = append(rids, rid)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Get(nil, rids[i%len(rids)], func([]byte) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetColdSmallPool(b *testing.B) {
	f := benchFile(b, 512, 8)
	rec := make([]byte, 96)
	var rids []RID
	for {
		rid, err := f.Insert(rec)
		if err != nil {
			break
		}
		rids = append(rids, rid)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Stride so consecutive gets land on distant pages.
		rid := rids[(i*127)%len(rids)]
		if err := f.Get(nil, rid, func([]byte) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanFile(b *testing.B) {
	f := benchFile(b, 256, 512)
	rec := make([]byte, 96)
	for {
		if _, err := f.Insert(rec); err != nil {
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := f.Scan(func(RID, []byte) bool { n++; return true }); err != nil {
			b.Fatal(err)
		}
	}
}
