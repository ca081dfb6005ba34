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
// order they answer. What it changes is when the device is read: the
// pages the batch will miss on are read first, together, each into a
// buffer of the lane that reads it; the loop then runs with those reads
// already made, and a miss takes its image by trading buffers with the
// lane instead of waiting for the device. Nothing about the pool is
// decided while the reads are out, so nothing can depend on which of
// them comes back first.

// load is one page read made for a fix: where it goes and how it ended.
type load struct {
	at  int // position in the batch
	p   *Pool
	ctx context.Context
	id  disk.PageID
	buf []byte

	retries int   // transient faults absorbed by the retry policy
	err     error // the device's answer once the policy gave up
	sum     error // page.Verify's, when the device delivered
}

// run reads and verifies the page. It touches no pool state but dev and
// retry, which the goroutine holding p.mu for this load keeps still.
func (ld *load) run() {
	ld.retries, ld.err = ld.p.retry.Do(func() error {
		return disk.ReadPageCtx(ld.ctx, ld.p.dev, ld.id, ld.buf)
	})
	ld.sum = nil
	if ld.err == nil {
		ld.sum = page.Verify(ld.buf)
	}
}

// Lanes is a set of goroutines that read pages for FixBatch, so that a
// batch's reads are on their devices at the same time, together with
// the page buffers they read into. It serves one batch at a time; a
// query starts one and stops it when it ends. A nil *Lanes is valid and
// means no overlap: FixBatch then reads each miss in turn.
type Lanes struct {
	jobs    chan *load
	pending sync.WaitGroup // loads of the current batch still on a worker
	workers sync.WaitGroup
	loads   []load // the current batch's; one more than there are workers
}

// StartLanes starts n workers; with them and the caller's own goroutine
// a batch overlaps up to n+1 reads. It returns nil for n < 1.
func StartLanes(n int) *Lanes {
	if n < 1 {
		return nil
	}
	ls := &Lanes{jobs: make(chan *load), loads: make([]load, n+1)}
	ls.workers.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer ls.workers.Done()
			for ld := range ls.jobs {
				ld.run()
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

// read makes the device reads the batch ids is about to need from p:
// one for each page that is not resident now, up to as many as ls can
// overlap (any others are read in turn by the fix that misses). A page
// that is resident now but replaced earlier in the same batch is also
// left to its fix. The last read is made here, the others by workers.
// Caller holds p.mu.
func (ls *Lanes) read(p *Pool, ctxs []context.Context, ids []disk.PageID) []load {
	if p.closed || int(p.pinned.Value()) == len(p.frames) {
		// Every miss is about to be refused; a read would be one the
		// loop of single fixes never makes.
		return nil
	}
	n := 0
	for i, id := range ids {
		if n == len(ls.loads) {
			break
		}
		if _, ok := p.table[id]; ok || slices.Contains(ids[:i], id) {
			continue
		}
		ld := &ls.loads[n]
		n++
		ld.at, ld.p, ld.ctx, ld.id = i, p, ctxs[i], id
		if len(ld.buf) != len(p.frames[0].data) {
			ld.buf = make([]byte, len(p.frames[0].data))
		}
	}
	if n == 0 {
		return nil
	}
	ls.pending.Add(n - 1)
	for k := 0; k < n-1; k++ {
		ls.jobs <- &ls.loads[k]
	}
	ls.loads[n-1].run()
	ls.pending.Wait()
	return ls.loads[:n]
}

// FixBatch brings the pages ids into the pool: for each in turn, FixAs
// under ctxs[i] and, if that succeeded, Unfix — with the device reads
// behind the misses made together beforehand on ls (see the top of this
// file) rather than one by one. It leaves no pin behind and reports no
// error: a page it could not bring in is simply not resident, and the
// caller's own Fix of it meets the fault again. The pool lock is held
// from the first read to the last unfix.
func (p *Pool) FixBatch(ctxs []context.Context, ids []disk.PageID, ls *Lanes) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var loads []load
	if ls != nil {
		loads = ls.read(p, ctxs, ids)
	}
	for i, id := range ids {
		var ld *load
		if len(loads) > 0 && loads[0].at == i {
			ld, loads = &loads[0], loads[1:]
		}
		if f, err := p.fixLocked(ctxs[i], id, ld); err == nil {
			p.unfixLocked(f)
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
	if f, ok := p.table[id]; ok {
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
		ld = &load{p: p, ctx: ctx, id: id, buf: f.data}
		ld.run()
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
