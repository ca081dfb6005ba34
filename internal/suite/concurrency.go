package suite

// Concurrent-throughput experiment: N queries at a time over one shared
// database, each holding a frame reservation and running under an
// optional per-query deadline. This figure measures the lifecycle
// machinery itself — admission, bounded pin waits, deadline aborts —
// so unlike the paper reproductions its y-axis is wall-clock throughput:
// it does not go through run's bracket, and it is deliberately NOT part
// of AllFigures (the golden-file test pins deterministic output; timing
// is not).

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"revelation/internal/assembly"
	"revelation/internal/buffer"
	"revelation/internal/gen"
	"revelation/internal/volcano"
)

// ConcurrencyOptions parameterize the 'concurrency' figure.
type ConcurrencyOptions struct {
	// MaxConcurrent is the largest concurrency level swept; the sweep
	// doubles up from 1 (1, 2, 4, ... MaxConcurrent). Values < 1 mean 8.
	MaxConcurrent int
	// Deadline bounds each individual query; zero means unbounded.
	Deadline time.Duration
	// Queries is the total number of queries run at every level, spread
	// over the workers; values < 1 mean twice the level.
	Queries int
}

// The figure's fixed shape: a small per-query window over a shared pool
// small enough that reservations, not memory, are what runs out.
const (
	concurrentWindow = 4
	concurrentFrames = 512
)

// concurrentLevel is the measurement at one concurrency level.
type concurrentLevel struct {
	dropped   int           // queries shed at admission or aborted by their deadline
	assembled int           // complex objects emitted across all queries
	elapsed   time.Duration // wall clock for the whole level
}

// runConcurrent runs opts.Queries queries at the given concurrency
// level over db and reports the aggregate outcome. Queries that shed at
// admission or die at their deadline are counted, not failed: under
// overload those are correct outcomes — what must hold is that the
// books balance afterwards (zero pins, zero reservations).
func (s *Session) runConcurrent(db *gen.Database, level int, opts ConcurrencyOptions) (concurrentLevel, error) {
	queries := opts.Queries
	if queries < 1 {
		queries = 2 * level
	}
	// Never demand more than the pool holds, or nothing ever runs.
	reserve := min(concurrentWindow*db.NodesPerObject+12, db.Pool.Size())

	var dropped, assembled atomic.Int64
	var firstErr atomic.Value
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < level; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range work {
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if opts.Deadline > 0 {
					ctx, cancel = context.WithTimeout(ctx, opts.Deadline)
				}
				items := make([]volcano.Item, len(db.Roots))
				for i, root := range db.Roots {
					items[i] = root
				}
				op := assembly.New(volcano.NewSlice(items), db.Store, db.Template, assembly.Options{
					Window:         concurrentWindow,
					Scheduler:      assembly.Elevator,
					PinWindowPages: true,
					ReserveFrames:  reserve,
					Tracer:         s.Tracer,
					Metrics:        s.Metrics,
				})
				volcano.Bind(ctx, op)
				n, err := volcano.Count(op)
				cancel()
				assembled.Add(int64(n))
				switch {
				case err == nil:
				case errors.Is(err, buffer.ErrAdmission), errors.Is(err, assembly.ErrShed),
					errors.Is(err, context.DeadlineExceeded):
					dropped.Add(1)
				default:
					firstErr.CompareAndSwap(nil, err)
				}
			}
		}()
	}
	for q := 0; q < queries; q++ {
		work <- q
	}
	close(work)
	wg.Wait()
	lvl := concurrentLevel{
		dropped:   int(dropped.Load()),
		assembled: int(assembled.Load()),
		elapsed:   time.Since(start),
	}
	if err, _ := firstErr.Load().(error); err != nil {
		return lvl, err
	}
	if got := db.Pool.PinnedFrames(); got != 0 {
		return lvl, fmt.Errorf("suite: %d frames still pinned after level %d", got, level)
	}
	if got := db.Pool.ReservedFrames(); got != 0 {
		return lvl, fmt.Errorf("suite: %d frames still reserved after level %d", got, level)
	}
	return lvl, nil
}

// figConcurrency sweeps concurrency levels and reports throughput
// (assembled complex objects per second; Extra carries the shed+timeout
// count per level).
func (s *Session) figConcurrency(p FigureParams) (Figure, error) {
	maxLevel := p.Concurrency.MaxConcurrent
	if maxLevel < 1 {
		maxLevel = 8
	}
	e, err := s.env(Scenario{Objects: scaled(1000, p.Scale), Seed: figureSeed, BufferPgs: concurrentFrames}.withDefaults())
	if err != nil {
		return Figure{}, err
	}
	fig := Figure{
		ID:     "concurrency",
		Title:  "Concurrent query throughput under admission control",
		XLabel: "concurrent queries",
		YLabel: "complex objects assembled / second",
		Notes: []string{
			fmt.Sprintf("pool %d frames, per-query reservation, deadline %v", concurrentFrames, p.Concurrency.Deadline),
			"wall-clock measurement: values vary run to run (excluded from golden output)",
		},
	}
	tput := Series{Label: "elevator"}
	for level := 1; level <= maxLevel; level *= 2 {
		lvl, err := s.runConcurrent(e.db, level, p.Concurrency)
		if err != nil {
			return fig, err
		}
		tput.X = append(tput.X, float64(level))
		tput.Y = append(tput.Y, float64(lvl.assembled)/max(lvl.elapsed.Seconds(), 1e-9))
		tput.Extra = append(tput.Extra, float64(lvl.dropped))
	}
	fig.Series = []Series{tput}
	return fig, nil
}
