package disk

import (
	"context"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"revelation/internal/metrics"
	"revelation/internal/qtrace"
	"revelation/internal/trace"
)

// bothMedia runs f over a fresh 8-page device on each medium.
func bothMedia(t *testing.T, f func(t *testing.T, d *Sim)) {
	t.Run("memory", func(t *testing.T) { f(t, NewSim(512, 8)) })
	t.Run("file", func(t *testing.T) {
		d, err := OpenFile(filepath.Join(t.TempDir(), "dev.db"), 512)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if _, err := d.Allocate(8); err != nil {
			t.Fatal(err)
		}
		f(t, d)
	})
}

// TestAllocateBounds: the one Allocate refuses to shrink the device and
// to grow it past the page-id space, on both media. (The file copy used
// to truncate the database file on a negative n.)
func TestAllocateBounds(t *testing.T) {
	bothMedia(t, func(t *testing.T, d *Sim) {
		for _, c := range []struct {
			name      string
			n         int
			wantErr   bool
			wantFirst PageID
			wantPages int
		}{
			{"negative", -1, true, InvalidPage, 8},
			{"whole device negative", -8, true, InvalidPage, 8},
			{"zero", 0, false, 8, 8},
			{"grow", 3, false, 8, 11},
		} {
			first, err := d.Allocate(c.n)
			if (err != nil) != c.wantErr || first != c.wantFirst {
				t.Errorf("%s: Allocate(%d) = %d, %v; want first %d, error %v",
					c.name, c.n, first, err, c.wantFirst, c.wantErr)
			}
			if got := d.NumPages(); got != c.wantPages {
				t.Fatalf("%s: %d pages after Allocate(%d), want %d", c.name, got, c.n, c.wantPages)
			}
		}
		// Past the page-id space: the last id a device may hold is
		// InvalidPage-1. (The size is set directly — no medium holds 4 G
		// pages in a test — and small requests keep a regression cheap.)
		d.n = int(InvalidPage) - 1
		if first, err := d.Allocate(2); err == nil {
			t.Errorf("Allocate(2) with one page id left returned %d, no error", first)
		}
		d.n = 11
		buf := make([]byte, 512)
		if err := d.ReadPage(10, buf); err != nil {
			t.Errorf("read of the last allocated page after refused allocations: %v", err)
		}
	})
}

// TestUntracedReadAllocs pins the merged access path at zero
// allocations per untraced read: plain and charged to a live query
// span, registered with a metrics registry and not.
func TestUntracedReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	_, sp := qtrace.NewCollector(1).Begin("q")
	ctx := qtrace.With(context.Background(), sp)
	for _, registered := range []bool{false, true} {
		d := New(64)
		if registered {
			d.RegisterMetrics(metrics.NewRegistry(), "pin")
		}
		buf := make([]byte, d.PageSize())
		p := PageID(0)
		if n := testing.AllocsPerRun(200, func() {
			p = (p + 17) % 64
			if err := d.ReadPage(p, buf); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("registered=%v: %v allocs per ReadPage, want 0", registered, n)
		}
		if n := testing.AllocsPerRun(200, func() {
			p = (p + 17) % 64
			if err := d.ReadPageCtx(ctx, p, buf); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("registered=%v: %v allocs per ReadPageCtx with a live span, want 0", registered, n)
		}
	}
	if got := sp.Counters().Reads; got == 0 {
		t.Error("the live span was charged no reads")
	}
}

// TestArmConcurrentScrape is the -race storm: readers charging a shared
// query span and a writer, all through one device, against a scraper
// that reads Stats, Head and the registry's exposition while they run
// and flips the tracer on and off. Afterwards the cells, the registry
// and the span agree on every access.
func TestArmConcurrentScrape(t *testing.T) {
	bothMedia(t, func(t *testing.T, d *Sim) {
		reg := metrics.NewRegistry()
		d.RegisterMetrics(reg, "storm")
		_, sp := qtrace.NewCollector(1).Begin("q")
		ctx := qtrace.With(context.Background(), sp)

		const readers, perReader, writes = 4, 300, 100
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				buf := make([]byte, d.PageSize())
				for i := 0; i < perReader; i++ {
					if err := d.ReadPageCtx(ctx, PageID((r*5+i)%8), buf); err != nil {
						t.Error(err)
						return
					}
				}
			}(r)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, d.PageSize())
			for i := 0; i < writes; i++ {
				if err := d.WritePage(PageID(i%8), buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		tr := trace.New()
		for i := 0; i < 50; i++ {
			// (Stats is a cell-by-cell snapshot, not an atomic one: only
			// per-cell claims hold mid-run.)
			if st := d.Stats(); st.MaxSeek > 7 || d.Head() >= 8 {
				t.Errorf("scraped an impossible state: %+v, head %d", st, d.Head())
			}
			var sb strings.Builder
			if err := reg.WriteText(&sb); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(sb.String(), "asm_disk_read_seek_pages_total") {
				t.Fatal("exposition missing the disk families")
			}
			if i%2 == 0 {
				d.SetTracer(tr)
			} else {
				d.SetTracer(nil)
			}
		}
		wg.Wait()

		st := d.Stats()
		if st.Reads != readers*perReader || st.Writes != writes {
			t.Errorf("reads/writes %d/%d, want %d/%d", st.Reads, st.Writes, readers*perReader, writes)
		}
		snap := reg.Snapshot()
		for name, want := range map[string]int64{
			"asm_disk_reads_total":           st.Reads,
			"asm_disk_writes_total":          st.Writes,
			"asm_disk_seek_pages_total":      st.SeekTotal,
			"asm_disk_read_seek_pages_total": st.SeekReads,
			"asm_disk_max_seek_pages":        st.MaxSeek,
		} {
			if got := snap.Value(name, "dev", "storm"); got != want {
				t.Errorf("registry %s = %d, Stats says %d", name, got, want)
			}
		}
		if c := sp.Counters(); c.Reads != st.Reads || c.SeekPages != st.SeekReads {
			t.Errorf("span reads/seek %d/%d, device %d/%d", c.Reads, c.SeekPages, st.Reads, st.SeekReads)
		}
	})
}
