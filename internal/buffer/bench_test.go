package buffer

import (
	"context"
	"fmt"
	"testing"
	"time"

	"revelation/internal/difftest"
	"revelation/internal/disk"
	"revelation/internal/qtrace"
)

// hitPool returns a pool with page 3 resident and unpinned.
func hitPool(tb testing.TB) *Pool {
	tb.Helper()
	p := New(disk.New(8), 8)
	f, err := p.Fix(3)
	if err != nil {
		tb.Fatal(err)
	}
	if err := p.Unfix(f, false); err != nil {
		tb.Fatal(err)
	}
	return p
}

func BenchmarkFixHit(b *testing.B) {
	p := hitPool(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := p.Fix(3)
		if err != nil {
			b.Fatal(err)
		}
		p.Unfix(f, false)
	}
}

// TestFixHitAllocs pins the hit path — Fix of a resident page and its
// Unfix — at no allocation.
func TestFixHitAllocs(t *testing.T) {
	p := hitPool(t)
	allocs := testing.AllocsPerRun(1000, func() {
		f, err := p.Fix(3)
		if err != nil {
			t.Fatal(err)
		}
		p.Unfix(f, false)
	})
	if allocs != 0 {
		t.Errorf("Fix hit + Unfix allocates %v times, want 0", allocs)
	}
}

// missSweep returns a full pool of the given size and a step that
// fixes and releases the next page of a cyclic sweep over a quarter
// more pages than there are frames: under LRU every step evicts. Pages
// are 64 bytes, so the read and the checksum behind each miss stay
// small beside the choice of a victim.
func missSweep(tb testing.TB, frames int) (p *Pool, step func()) {
	tb.Helper()
	pages := frames + frames/4 + 1
	p = New(disk.NewSim(64, pages), frames)
	next := 0
	step = func() {
		f, err := p.Fix(disk.PageID(next))
		if err != nil {
			tb.Fatal(err)
		}
		p.Unfix(f, false)
		if next++; next == pages {
			next = 0
		}
	}
	for i := 0; i < pages; i++ {
		step()
	}
	return p, step
}

// TestFixMissAllocs pins the miss path — Fix of a page that is not
// resident, its read from a local Sim and the eviction it makes, then its
// Unfix — at no allocation, with a nil ctx and with a query span. It is
// the body FixBatch runs for each of its pages.
func TestFixMissAllocs(t *testing.T) {
	if difftest.Race {
		t.Skip("the race detector allocates on its own account")
	}
	_, sp := qtrace.NewCollector(1).Begin("q")
	for _, ctx := range []context.Context{nil, qtrace.With(context.Background(), sp)} {
		p, _ := missSweep(t, 16)
		pages, next := p.Device().NumPages(), 0
		before := p.Stats().Faults
		allocs := testing.AllocsPerRun(1000, func() {
			f, err := p.FixAs(ctx, disk.PageID(next))
			if err != nil {
				t.Fatal(err)
			}
			p.Unfix(f, false)
			next = (next + 1) % pages
		})
		if got := p.Stats().Faults - before; got != 1001 {
			t.Fatalf("%d misses in 1001 fixes", got)
		}
		if allocs != 0 {
			t.Errorf("Fix miss + Unfix (span %v) allocates %v times, want 0", ctx != nil, allocs)
		}
	}
}

func BenchmarkFixMiss(b *testing.B) {
	for _, frames := range []int{800, 8000, 80000} {
		b.Run(fmt.Sprintf("frames=%d", frames), func(b *testing.B) {
			p, step := missSweep(b, frames)
			before := p.Stats().Evictions
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.StopTimer()
			if got := p.Stats().Evictions - before; got != int64(b.N) {
				b.Fatalf("%d evictions in %d steps", got, b.N)
			}
		})
	}
}

// blankDev is a device of any number of 64-byte pages that keeps none of
// them: every page reads as zeros (which verify). What is not overridden
// here is not called by Fix and Unfix of clean pages.
type blankDev struct {
	disk.Device
	pages int
}

func (d blankDev) PageSize() int { return 64 }
func (d blankDev) NumPages() int { return d.pages }
func (d blankDev) ReadPage(id disk.PageID, buf []byte) error {
	if int(id) >= d.pages {
		return fmt.Errorf("blankDev: page %d of %d", id, d.pages)
	}
	clear(buf)
	return nil
}

// missSpread is missSweep over a device far larger than the pool: each
// step fixes and releases a page some large odd stride further on, so
// that every step misses and the ids met range over the whole device.
func missSpread(tb testing.TB, frames, pages int) (step func()) {
	tb.Helper()
	p := New(blankDev{pages: pages}, frames)
	next := 0
	return func() {
		f, err := p.Fix(disk.PageID(next))
		if err != nil {
			tb.Fatal(err)
		}
		p.Unfix(f, false)
		next = (next + 7919) % pages
	}
}

// TestMissCostFlat: a miss in a pool a hundred times larger costs at
// most three times as much, and so does a miss in a pool of 64 frames
// over a device a thousand times larger — what a miss consults is sized
// by the frames.
func TestMissCostFlat(t *testing.T) {
	if testing.Short() || difftest.Race {
		t.Skip("timing test")
	}
	const steps = 100000
	timed := func(step func()) time.Duration {
		best := time.Duration(1 << 62)
		for trial := 0; trial < 7; trial++ {
			start := time.Now()
			for i := 0; i < steps; i++ {
				step()
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	cost := func(frames int) time.Duration {
		_, step := missSweep(t, frames)
		return timed(step)
	}
	small, large := cost(800), cost(80000)
	t.Logf("%d misses: %v at 800 frames, %v at 80000", steps, small, large)
	if large > 3*small {
		t.Errorf("%d misses take %v at 80000 frames, over 3x the %v at 800", steps, large, small)
	}
	small, large = timed(missSpread(t, 64, 1000)), timed(missSpread(t, 64, 1000000))
	t.Logf("%d misses at 64 frames: %v over 1 000 pages, %v over 1 000 000", steps, small, large)
	if large > 3*small {
		t.Errorf("%d misses at 64 frames take %v over 1 000 000 pages, over 3x the %v over 1 000", steps, large, small)
	}
}
