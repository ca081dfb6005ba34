package shard

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"revelation/internal/disk"
)

// runDev is a disk.Sim that is also a disk.RunReader and says how it was
// read: runs counts the runs that reached it whole. Each page of a run
// goes through the Sim — its fault hook, its arm — so the Sim's own read
// counter says how many pages were delivered, by either path.
type runDev struct {
	*disk.Sim
	runs int
}

func (d *runDev) ReadPages(ctx context.Context, ids []disk.PageID, bufs [][]byte, errs []error) {
	d.runs++
	for i, p := range ids {
		errs[i] = d.Sim.ReadPageCtx(ctx, p, bufs[i])
	}
}

// runWorld is a two-member router over runDevs whose page p is filled
// with tag^p, and for each member some pages it owns.
type runWorld struct {
	r     *Router
	devs  [2]*runDev
	owned [2][]disk.PageID
	clk   *fakeClock
}

func newRunWorld(t *testing.T, replica disk.Device) *runWorld {
	t.Helper()
	const pages = 64
	w := &runWorld{clk: newFakeClock()}
	members := make([]Member, 2)
	for i := range members {
		w.devs[i] = &runDev{Sim: disk.New(pages)}
		fillPages(t, w.devs[i], 0)
		members[i] = Member{Name: fmt.Sprintf("m%d", i), Primary: w.devs[i]}
	}
	members[0].Replica = replica
	r, err := New(Config{Members: members, Breaker: breakerCfg(w.clk), Retry: disk.RetryPolicy{MaxAttempts: 2}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	w.r = r
	for p := disk.PageID(0); p < pages; p++ {
		i := r.ShardOf(p)
		w.owned[i] = append(w.owned[i], p)
	}
	if len(w.owned[0]) < 8 || len(w.owned[1]) < 8 {
		t.Fatalf("members own %d and %d of %d pages", len(w.owned[0]), len(w.owned[1]), pages)
	}
	return w
}

// read reads the run through the router and checks every page that is
// reported read against its pattern.
func (w *runWorld) read(t *testing.T, ids ...disk.PageID) []error {
	t.Helper()
	bufs, errs := make([][]byte, len(ids)), make([]error, len(ids))
	for i := range bufs {
		bufs[i] = make([]byte, w.r.PageSize())
	}
	w.r.ReadPages(context.Background(), ids, bufs, errs)
	for i, err := range errs {
		if err == nil && (bufs[i][0] != byte(ids[i]) || bufs[i][len(bufs[i])-1] != byte(ids[i])) {
			t.Errorf("page %d arrived as %d…%d", ids[i], bufs[i][0], bufs[i][len(bufs[i])-1])
		}
	}
	return errs
}

// took demands how member i's device was read since the last call: how
// many runs reached it whole and how many pages it delivered in all.
func (w *runWorld) took(t *testing.T, what string, i, runs int, pages int64) {
	t.Helper()
	d := w.devs[i]
	if got := d.Stats().Reads; d.runs != runs || got != pages {
		t.Errorf("%s: member %d served %d runs and delivered %d pages, want %d and %d", what, i, d.runs, got, runs, pages)
	}
	d.runs = 0
	d.ResetStats()
}

// TestRouterRunPaths walks a run down each way the router can send it
// and checks, from the devices' side, that the way is the one intended
// and that every page is delivered exactly once whichever it was: whole
// to the one healthy member that owns it; page by page when the owners
// are several, when a page of it fails alone (that page only, the rest
// stay as the run delivered them), when the member's breaker is open,
// when the member has a replica a read could be hedged against, when a
// page is one the router refuses, and after Close.
func TestRouterRunPaths(t *testing.T) {
	w := newRunWorld(t, nil)
	a, b := w.owned[0], w.owned[1]
	noErrors := func(what string, errs []error) {
		t.Helper()
		if err := errors.Join(errs...); err != nil {
			t.Errorf("%s: %v", what, err)
		}
	}

	noErrors("one owner", w.read(t, a[0], a[1], a[2], a[3]))
	w.took(t, "one owner", 0, 1, 4)
	w.took(t, "one owner", 1, 0, 0)
	if w.r.Head() != a[3] {
		t.Errorf("head at %d after a run ending on %d", w.r.Head(), a[3])
	}

	noErrors("two owners", w.read(t, a[0], b[0], a[1], b[1]))
	w.took(t, "two owners", 0, 0, 2)
	w.took(t, "two owners", 1, 0, 2)

	// The third page fails once, transiently: the run delivers three
	// pages, the routed path reads the fourth — and only that one.
	failed := false
	w.devs[1].SetFault(func(p disk.PageID, write bool) error {
		if p == b[2] && !failed {
			failed = true
			return fmt.Errorf("%w: injected", disk.ErrTransient)
		}
		return nil
	})
	noErrors("third page fails once", w.read(t, b[0], b[1], b[2], b[3]))
	w.took(t, "third page fails once", 1, 1, 4)
	w.devs[1].SetFault(nil)
	if st := w.r.BreakerState(1); st != Closed {
		t.Errorf("one failed page left member 1's breaker %v", st)
	}

	// Member 1 down: the run fails whole, then page by page, and that
	// opens the breaker; the next run is not offered to the device at all.
	w.devs[1].SetFault(func(disk.PageID, bool) error { return fmt.Errorf("%w: down", disk.ErrTransient) })
	for i, err := range w.read(t, b[0], b[1], b[2]) {
		if !disk.Retryable(err) {
			t.Errorf("page %d of a run on a member that is down: %v", i, err)
		}
	}
	if st := w.r.BreakerState(1); st != Open {
		t.Fatalf("member 1's breaker is %v after a run and its pages all failed", st)
	}
	w.took(t, "member down", 1, 1, 0)
	for i, err := range w.read(t, b[0], b[1], b[2]) {
		if !errors.Is(err, ErrShardDown) {
			t.Errorf("page %d of a run on an open breaker: %v, want ErrShardDown", i, err)
		}
	}
	w.took(t, "breaker open", 1, 0, 0)
	// Half-open: the run itself is the probe.
	w.devs[1].SetFault(nil)
	w.clk.Advance(2 * breakerCfg(w.clk).OpenTimeout)
	noErrors("half-open probe", w.read(t, b[0], b[1], b[2]))
	w.took(t, "half-open probe", 1, 1, 3)

	// A page the router refuses sends every page on its own.
	errs := w.read(t, a[0], 9999, a[1])
	if errs[0] != nil || !errors.Is(errs[1], disk.ErrOutOfRange) || errs[2] != nil {
		t.Errorf("run with a page out of range: %v", errs)
	}
	w.took(t, "page out of range", 0, 0, 2)

	w.r.Close()
	for i, err := range w.read(t, a[0], a[1]) {
		if !errors.Is(err, disk.ErrClosed) {
			t.Errorf("page %d of a run after Close: %v", i, err)
		}
	}

	// A member with a replica: its runs go page by page down the hedged
	// path, the other member's still whole.
	repl := disk.New(64)
	fillPages(t, repl, 0)
	w = newRunWorld(t, repl)
	a, b = w.owned[0], w.owned[1]
	noErrors("replica present", w.read(t, a[0], a[1], a[2]))
	w.took(t, "replica present", 0, 0, 3)
	noErrors("beside a member with a replica", w.read(t, b[0], b[1], b[2]))
	w.took(t, "beside a member with a replica", 1, 1, 3)
	if got := repl.Stats().Reads; got != 0 {
		t.Errorf("the replica served %d reads of a healthy primary's", got)
	}
}
