package buffer

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"revelation/internal/disk"
	"revelation/internal/page"
	"revelation/internal/qtrace"
	"revelation/internal/trace"
)

// A batch of fixes whose device reads overlap, and the goroutines that
// run those reads. This lives apart from buffer.go and victim.go on
// purpose: what a hit touches there is laid out by measurement
// (DESIGN.md §6), and nothing in this file is on that path.
//
// FixBatch is FixAs followed by Unfix for each page, in argument order —
// the same ticks, hits, victims, evictions, admissions, counters and
// buffer events as that loop, whatever the devices do and in whatever
// order they answer. What it changes is when, and in what shape, the
// device is read: the pages the batch will miss on are read first, all
// lanes together and each lane's as one run (disk.ReadPages), each page
// into a buffer of the lane that reads it; the loop then runs with those
// reads already made, and a miss takes its image by trading buffers with
// the lane instead of waiting for the device. Nothing about the pool is
// decided while the reads are out, so nothing can depend on which of
// them comes back first.

// Run is one device lane's share of a batch: pages of that lane, in the
// order its arm should visit them, fixed under one context.
type Run struct {
	Ctx context.Context
	IDs []disk.PageID
}

// load is one page read made for a fix: where it goes and how it ended.
type load struct {
	run, at int // position in the batch: which run, which of its pages
	id      disk.PageID
	buf     []byte

	retries int   // transient faults absorbed by the retry policy
	err     error // the device's answer once the policy gave up
	sum     error // page.Verify's, when the device delivered
}

// read reads and verifies the page under p's retry policy. It touches no
// pool state but dev and retry, which the goroutine holding p.mu for
// this load keeps still.
func (ld *load) read(p *Pool, ctx context.Context) {
	ld.settle(p, ctx, disk.ReadPageCtx(ctx, p.dev, ld.id, ld.buf))
}

// settle finishes a read whose first attempt ended with first: the retry
// policy takes it from there, as if it had made that attempt itself,
// and a page that arrived is verified.
func (ld *load) settle(p *Pool, ctx context.Context, first error) {
	ld.retries, ld.err, ld.sum = 0, first, nil
	if first != nil {
		made := false
		ld.retries, ld.err = p.retry.Do(func() error {
			if !made {
				made = true
				return first
			}
			return disk.ReadPageCtx(ctx, p.dev, ld.id, ld.buf)
		})
	}
	if ld.err == nil {
		ld.sum = page.Verify(ld.buf)
	}
}

// runLoad is the reads made for one Run: its pages that will miss, and
// the slices that carry them to the device.
type runLoad struct {
	p     *Pool
	ctx   context.Context
	pages []load // buffers outlive a batch: cut back to length 0, never cleared

	ids  []disk.PageID
	bufs [][]byte
	errs []error
}

// add appends the page at position (run, at) of the batch to the loads.
func (rl *runLoad) add(run, at int, id disk.PageID) {
	n := len(rl.pages)
	if n < cap(rl.pages) {
		rl.pages = rl.pages[:n+1] // with the buffer it had last time
	} else {
		rl.pages = append(rl.pages, load{})
	}
	ld := &rl.pages[n]
	ld.run, ld.at, ld.id = run, at, id
	if size := len(rl.p.frames[0].data); len(ld.buf) != size {
		ld.buf = make([]byte, size)
	}
}

// read makes the run's first attempt as one device operation, then
// settles each page on its own.
func (rl *runLoad) read() {
	rl.ids, rl.bufs, rl.errs = rl.ids[:0], rl.bufs[:0], rl.errs[:0]
	for i := range rl.pages {
		rl.ids = append(rl.ids, rl.pages[i].id)
		rl.bufs = append(rl.bufs, rl.pages[i].buf)
		rl.errs = append(rl.errs, nil)
	}
	disk.ReadPages(rl.ctx, rl.p.dev, rl.ids, rl.bufs, rl.errs)
	for i := range rl.pages {
		rl.pages[i].settle(rl.p, rl.ctx, rl.errs[i])
	}
	clear(rl.errs)
}

// Lanes is a set of goroutines that read pages for FixBatch, so that a
// batch's runs are on their devices at the same time, together with
// the page buffers they read into. It serves one batch at a time; a
// query starts one and stops it when it ends. A nil *Lanes is valid and
// means no read ahead: FixBatch then reads each miss in turn.
type Lanes struct {
	jobs    chan *runLoad
	pending sync.WaitGroup // runs of the current batch still on a worker
	workers sync.WaitGroup
	loads   []runLoad // the current batch's; one more than there are workers
}

// StartLanes starts n workers; with them and the caller's own goroutine
// a batch overlaps up to n+1 runs. It returns nil for n < 1.
func StartLanes(n int) *Lanes {
	if n < 1 {
		return nil
	}
	ls := &Lanes{jobs: make(chan *runLoad), loads: make([]runLoad, n+1)}
	ls.workers.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer ls.workers.Done()
			for rl := range ls.jobs {
				rl.read()
				ls.pending.Done()
			}
		}()
	}
	return ls
}

// Stop ends the workers and returns once they have exited. It must not
// be called twice, or while a FixBatch is using ls.
func (ls *Lanes) Stop() {
	if ls == nil {
		return
	}
	close(ls.jobs)
	ls.workers.Wait()
}

// read makes the device reads the batch is about to need from p: for
// each run, one read of its pages that are not resident now — for as
// many runs as ls can overlap (any others are read, page by page, by the
// fixes that miss). A page that is resident now but replaced earlier in
// the same batch is also left to its fix. The last run is read here, the
// others by workers. It returns the runs' loads, in batch order. Caller
// holds p.mu.
func (ls *Lanes) read(p *Pool, runs []Run) []runLoad {
	if p.closed || int(p.pinned.Value()) == len(p.frames) {
		// Every miss is about to be refused; a read would be one the
		// loop of single fixes never makes.
		return nil
	}
	n := 0
	for r, run := range runs {
		if n == len(ls.loads) {
			break
		}
		rl := &ls.loads[n]
		rl.p, rl.ctx, rl.pages = p, run.Ctx, rl.pages[:0]
		for i, id := range run.IDs {
			if p.resident(id) == nil && !inBatchBefore(runs, r, i) {
				rl.add(r, i, id)
			}
		}
		if len(rl.pages) > 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	ls.pending.Add(n - 1)
	for k := 0; k < n-1; k++ {
		ls.jobs <- &ls.loads[k]
	}
	ls.loads[n-1].read()
	ls.pending.Wait()
	return ls.loads[:n]
}

// inBatchBefore reports whether the page at position (r, i) of the batch
// also stands earlier in it.
func inBatchBefore(runs []Run, r, i int) bool {
	id := runs[r].IDs[i]
	for _, run := range runs[:r] {
		if slices.Contains(run.IDs, id) {
			return true
		}
	}
	return slices.Contains(runs[r].IDs[:i], id)
}

// FixBatch brings the pages of runs into the pool: for each run in turn
// and each of its pages in turn, FixAs under the run's context and, if
// that succeeded, Unfix — with the device reads behind the misses made
// together beforehand on ls, a run at a time (see the top of this file),
// rather than one by one. It leaves no pin behind and reports no error:
// a page it could not bring in is simply not resident, and the caller's
// own Fix of it meets the fault again. The pool lock is held from the
// first read to the last unfix.
func (p *Pool) FixBatch(runs []Run, ls *Lanes) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var loads []runLoad
	if ls != nil {
		loads = ls.read(p, runs)
	}
	for r, run := range runs {
		var pages []load
		if len(loads) > 0 && loads[0].pages[0].run == r {
			pages, loads = loads[0].pages, loads[1:]
		}
		for i, id := range run.IDs {
			var ld *load
			if len(pages) > 0 && pages[0].at == i {
				ld, pages = &pages[0], pages[1:]
			}
			if f, err := p.fixLocked(run.Ctx, id, ld); err == nil {
				p.unfixLocked(f)
			}
		}
	}
}

// fixLocked is fix, step for step, for a caller that holds mu and may
// bring the device read with it: ld, when not nil, is the read of page
// id already made, and a miss takes the image out of it.
func (p *Pool) fixLocked(ctx context.Context, id disk.PageID, ld *load) (*Frame, error) {
	if p.closed {
		return nil, ErrPoolClosed
	}
	sp := qtrace.From(ctx)
	p.tick++
	if f := p.resident(id); f != nil {
		f.pins++
		if f.pins == 1 {
			p.pinned.Add(1)
		}
		f.stamp = p.tick
		p.hits.Inc()
		sp.OnHit()
		p.notePins()
		if p.tr != nil {
			p.tr.Buffer(trace.KindHit, int64(id), 0, sp.QID())
		}
		return f, nil
	}
	f, err := p.victimLocked()
	if err != nil {
		return nil, err
	}
	if ld == nil {
		ld = &load{id: id, buf: f.data}
		ld.read(p, ctx)
	} else {
		// The frame's old buffer becomes the lane's next one.
		f.data, ld.buf = ld.buf, f.data
	}
	p.retries.Add(int64(ld.retries))
	if ld.retries > 0 {
		sp.OnIORetries(int64(ld.retries))
	}
	p.classifyErr(ld.err)
	if ld.err != nil {
		p.emptyLocked(f)
		return nil, ld.err
	}
	if ld.sum != nil {
		p.emptyLocked(f)
		p.checksumFails.Inc()
		if p.tr != nil {
			p.tr.ChecksumFail(int64(id))
		}
		return nil, fmt.Errorf("buffer: fix page %d: %w", id, ld.sum)
	}
	p.admitLocked(f, id, false)
	p.faults.Inc()
	sp.OnMiss()
	if p.tr != nil {
		p.tr.Buffer(trace.KindMiss, int64(id), 0, sp.QID())
	}
	return f, nil
}

// unfixLocked is Unfix(f, false) for a caller that holds mu and the pin.
func (p *Pool) unfixLocked(f *Frame) {
	f.pins--
	if f.pins == 0 {
		p.pinned.Add(-1)
		if f.place == placeNone {
			p.pushLRU(f)
		}
		p.notifyFree()
	}
	if p.tr != nil {
		p.tr.Buffer(trace.KindUnfix, int64(f.id), 0, 0)
	}
}
