package buffer

import (
	"strings"
	"sync"
	"testing"

	"revelation/internal/disk"
	"revelation/internal/metrics"
)

// TestConcurrentScrape pins down the Stats() contract under -race:
// snapshots and registry expositions must be safe while fixes, unfixes,
// and evictions are in flight on other goroutines.
func TestConcurrentScrape(t *testing.T) {
	dev := disk.New(64)
	pool := New(dev, 8)
	reg := metrics.NewRegistry()
	pool.RegisterMetrics(reg, "scrape")
	disk.RegisterMetrics(dev, reg, "scrape")

	const workers, opsPerWorker = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				f, err := pool.Fix(disk.PageID((w*opsPerWorker + i) % 64))
				if err != nil {
					t.Error(err)
					return
				}
				if err := pool.Unfix(f, i%7 == 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		st := pool.Stats()
		if st.Hits < 0 || st.Faults < 0 {
			t.Errorf("negative counters: %+v", st)
		}
		var sb strings.Builder
		if err := reg.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), "asm_buffer_hits_total") {
			t.Fatal("exposition missing buffer family")
		}
	}
	wg.Wait()

	st := pool.Stats()
	if got := st.Hits + st.Faults; got != workers*opsPerWorker {
		t.Errorf("hits+faults = %d, want %d", got, workers*opsPerWorker)
	}
	if pool.PinnedFrames() != 0 {
		t.Errorf("pinned frames after drain = %d, want 0", pool.PinnedFrames())
	}
	if got := reg.Snapshot().Value("asm_buffer_hits_total", "pool", "scrape"); got != st.Hits {
		t.Errorf("registry hits %d != stats hits %d", got, st.Hits)
	}
}
