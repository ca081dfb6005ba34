package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"revelation/internal/disk"
)

// runDev is a disk.Sim that is also a disk.RunReader and a
// disk.RunWriter and says how it was read and written: runs and wruns
// count the runs that reached it whole. Each page of a run goes through
// the Sim — its fault hook, its arm — so the Sim's own counters say how
// many pages were delivered or written, by either path.
type runDev struct {
	*disk.Sim
	runs, wruns int
}

func (d *runDev) WritePages(ids []disk.PageID, bufs [][]byte, errs []error) {
	d.wruns++
	for i, p := range ids {
		errs[i] = d.Sim.WritePage(p, bufs[i])
	}
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
// to the one healthy member that owns it, whether or not that member has
// a replica; page by page when the owners are several, when a page of it
// fails alone (that page only, the rest stay as the run delivered them),
// when the member's breaker is open, when a page is one the router
// refuses, and after Close; and page by page onto a fresh replica when
// the primary fails the run and then each page.
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

	// A member with a fresh replica: its runs go whole to its primary,
	// as the other member's do.
	repl := disk.New(64)
	fillPages(t, repl, 0)
	w = newRunWorld(t, repl)
	a, b = w.owned[0], w.owned[1]
	noErrors("replica present", w.read(t, a[0], a[1], a[2]))
	w.took(t, "replica present", 0, 1, 3)
	noErrors("beside a member with a replica", w.read(t, b[0], b[1], b[2]))
	w.took(t, "beside a member with a replica", 1, 1, 3)
	if got := repl.Stats().Reads; got != 0 {
		t.Errorf("the replica served %d reads of a healthy primary's", got)
	}

	// That primary fails transiently: the run delivers nothing, each of
	// its pages is read again on its own — the primary tried once more,
	// then the fresh replica in the same attempt — and served degraded.
	tries := 0
	w.devs[0].SetFault(func(disk.PageID, bool) error {
		tries++
		return fmt.Errorf("%w: down", disk.ErrTransient)
	})
	noErrors("run fails over", w.read(t, a[0], a[1]))
	w.took(t, "run fails over", 0, 1, 0)
	if tries != 4 {
		t.Errorf("primary tried %d page reads, want 2 in the run and 1 for each page", tries)
	}
	if got := repl.Stats().Reads; got != 2 {
		t.Errorf("the replica served %d pages of the failed run, want 2", got)
	}
	if got := w.r.DegradedReads(0); got != 2 {
		t.Errorf("%d degraded reads, want 2", got)
	}
}

// write writes the run through the router, page p's image filled with
// byte p+1.
func (w *runWorld) write(ids ...disk.PageID) []error {
	bufs, errs := make([][]byte, len(ids)), make([]error, len(ids))
	for i := range bufs {
		bufs[i] = bytes.Repeat([]byte{byte(ids[i]) + 1}, w.r.PageSize())
	}
	w.r.WritePages(ids, bufs, errs)
	return errs
}

// wrote demands how member i's device was written since the last call:
// how many runs reached it whole and how many pages it wrote in all.
func (w *runWorld) wrote(t *testing.T, what string, i, runs int, pages int64) {
	t.Helper()
	d := w.devs[i]
	if got := d.Stats().Writes; d.wruns != runs || got != pages {
		t.Errorf("%s: member %d took %d write runs and wrote %d pages, want %d and %d", what, i, d.wruns, got, runs, pages)
	}
	d.wruns = 0
	d.ResetStats()
}

// TestRouterWriteRunPaths walks a write run down each way the router can
// send it and checks, from the devices' side, that every page is written
// exactly once: each owner's share whole, in one run, whether the run
// has one owner or several; a page that fails alone written again down
// the routed path, and only that page; a member that is down tried once
// with its share, then page by page, until its breaker opens and the
// next share is not offered to it; a page the router refuses left out of
// its owner's share; nothing after Close.
func TestRouterWriteRunPaths(t *testing.T) {
	w := newRunWorld(t, nil)
	a, b := w.owned[0], w.owned[1]
	noErrors := func(what string, errs []error) {
		t.Helper()
		if err := errors.Join(errs...); err != nil {
			t.Errorf("%s: %v", what, err)
		}
	}

	for _, d := range w.devs {
		d.ResetStats() // the fill's writes
	}
	noErrors("one owner", w.write(a[0], a[1], a[2], a[3]))
	w.wrote(t, "one owner", 0, 1, 4)
	w.wrote(t, "one owner", 1, 0, 0)
	if w.r.Head() != a[3] {
		t.Errorf("head at %d after a run ending on %d", w.r.Head(), a[3])
	}
	noErrors("two owners", w.write(a[0], b[0], a[1], b[1], a[2]))
	w.wrote(t, "two owners", 0, 1, 3)
	w.wrote(t, "two owners", 1, 1, 2)
	img := make([]byte, w.r.PageSize())
	for _, p := range []disk.PageID{a[0], b[0], a[2]} {
		if err := w.r.ReadPage(p, img); err != nil || img[0] != byte(p)+1 {
			t.Errorf("page %d after the run: %v, first byte %d", p, err, img[0])
		}
	}
	w.took(t, "reading back", 0, 0, 2)
	w.took(t, "reading back", 1, 0, 1)

	// The second page fails once, transiently: the share writes the
	// rest, the routed path writes that page again — and only that one.
	failed := false
	w.devs[1].SetFault(func(p disk.PageID, write bool) error {
		if write && p == b[1] && !failed {
			failed = true
			return fmt.Errorf("%w: injected", disk.ErrTransient)
		}
		return nil
	})
	noErrors("second page fails once", w.write(b[0], b[1], b[2]))
	w.wrote(t, "second page fails once", 1, 1, 3)
	w.devs[1].SetFault(nil)

	// Member 1 down: its share fails, then its pages one by one, and that
	// opens the breaker; the next share is not offered to the device at
	// all, while member 0's is written whole.
	w.devs[1].SetFault(func(disk.PageID, bool) error { return fmt.Errorf("%w: down", disk.ErrTransient) })
	for i, err := range w.write(b[0], b[1], b[2]) {
		if !disk.Retryable(err) {
			t.Errorf("page %d of a run on a member that is down: %v", i, err)
		}
	}
	if st := w.r.BreakerState(1); st != Open {
		t.Fatalf("member 1's breaker is %v after a share and its pages all failed", st)
	}
	w.wrote(t, "member down", 1, 1, 0)
	errs := w.write(a[0], b[0], a[1])
	if errs[0] != nil || !errors.Is(errs[1], ErrShardDown) || errs[2] != nil {
		t.Errorf("run beside an open breaker: %v", errs)
	}
	w.wrote(t, "beside an open breaker", 0, 1, 2)
	w.wrote(t, "breaker open", 1, 0, 0)
	w.devs[1].SetFault(nil)

	// A page the router refuses stays out of its owner's share.
	errs = w.write(a[0], 9999, a[1])
	if errs[0] != nil || !errors.Is(errs[1], disk.ErrOutOfRange) || errs[2] != nil {
		t.Errorf("run with a page out of range: %v", errs)
	}
	w.wrote(t, "page out of range", 0, 1, 2)

	w.r.Close()
	for i, err := range w.write(a[0], a[1]) {
		if !errors.Is(err, disk.ErrClosed) {
			t.Errorf("page %d of a run after Close: %v", i, err)
		}
	}
	w.wrote(t, "after Close", 0, 0, 0)
}

// TestRouterHeadOf: HeadOf is where a member's primary arm stands, as a
// global page: the page a routed read left it on, the last page of a run
// sent to it whole, its own last page of a run split between members.
// An index outside the members is no arm, before and after a join, and
// asking never leaves the router's lock held.
func TestRouterHeadOf(t *testing.T) {
	w := newRunWorld(t, nil)
	heads := func(what string, want ...disk.PageID) {
		t.Helper()
		for i, p := range want {
			if h, ok := w.r.HeadOf(i); h != p || !ok {
				t.Errorf("%s: HeadOf(%d) = %d, %v; want %d", what, i, h, ok, p)
			}
		}
	}
	noArm := func(what string, n int) {
		t.Helper()
		for _, i := range []int{-1, n, n + 1} {
			if _, ok := w.r.HeadOf(i); ok {
				t.Errorf("%s: HeadOf(%d) reports an arm", what, i)
			}
			if !w.r.mu.TryLock() {
				t.Errorf("%s: HeadOf(%d) left the router's lock held", what, i)
			}
			w.r.mu.Unlock() // ours, or the one HeadOf left, so Close can go on
		}
	}
	buf := make([]byte, w.r.PageSize())
	p0, p1 := w.owned[0][3], w.owned[1][3]
	for _, p := range []disk.PageID{p0, p1} {
		if err := w.r.ReadPage(p, buf); err != nil {
			t.Fatal(err)
		}
	}
	heads("routed reads", p0, p1)
	w.read(t, w.owned[1][:5]...)
	heads("a whole run", p0, w.owned[1][4])
	w.read(t, w.owned[0][6], w.owned[1][6], w.owned[0][1], w.owned[1][2])
	heads("a split run", w.owned[0][1], w.owned[1][2])
	noArm("two members", 2)

	joiner := disk.New(0)
	if _, err := w.r.AddMember(Member{Name: "m2", Primary: joiner}); err != nil {
		t.Fatal(err)
	}
	heads("after a join", w.owned[0][1], w.owned[1][2], joiner.Head())
	noArm("three members", 3)
}
