package disk

import (
	"context"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"revelation/internal/difftest"
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

// TestUntracedReadAllocs pins the merged access path at zero
// allocations per untraced read: plain and charged to a live query
// span, registered with a metrics registry and not.
func TestUntracedReadAllocs(t *testing.T) {
	if difftest.Race {
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

// TestHeadIsALoad is the -race check of the lock-free heads: one
// goroutine loops Head on a Sim and on a Striped while another reads
// pages through both, so the race detector sees every load against the
// store that published it under the device's mutex. Afterwards each
// head is the last page read.
func TestHeadIsALoad(t *testing.T) {
	const pages = 64
	sim := New(pages)
	st, err := NewStriped([]Device{New(0), New(0)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Allocate(pages); err != nil {
		t.Fatal(err)
	}
	started, stop := make(chan struct{}), make(chan struct{})
	looped := make(chan int)
	go func() {
		close(started)
		n := 0
		for {
			select {
			case <-stop:
				looped <- n
				return
			default:
			}
			if h, g := sim.Head(), st.Head(); h >= pages || g >= pages {
				t.Errorf("head %d / %d past the %d pages", h, g, pages)
			}
			n++
		}
	}()
	<-started
	buf := make([]byte, sim.PageSize())
	var last PageID
	for i := 0; i < 2000; i++ {
		last = PageID(i * 37 % pages)
		if err := sim.ReadPage(last, buf); err != nil {
			t.Fatal(err)
		}
		if err := st.ReadPage(last, buf); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	t.Logf("%d Head pairs loaded during the reads", <-looped)
	if h := sim.Head(); h != last {
		t.Errorf("Sim head %d, last page read %d", h, last)
	}
	if h := st.Head(); h != last {
		t.Errorf("Striped head %d, last page read %d", h, last)
	}
}
