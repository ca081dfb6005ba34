package main

import (
	"context"
	"sync/atomic"

	"revelation/internal/assembly"
	"revelation/internal/buffer"
	"revelation/internal/disk"
	"revelation/internal/wal"
)

// The decorators sit at the seams that are already interfaces
// (disk.Device, assembly.Scheduler, buffer.WAL). With the recorder off
// — while a database is generated, and during probes — each call costs
// one atomic load and forwards unchanged.

// parentKey carries a device span's id down a ReadPageCtx chain, so
// that a call landing on another goroutine still knows its parent.
type parentKey struct{}

// wire links the two decorators around one page-service hop: the
// client-side one publishes its open span, the server-side one (on the
// server's goroutine) adopts it as parent. A lane has at most one read
// in flight; clashes counts the times that did not hold.
type wire struct {
	open    atomic.Int32
	clashes atomic.Int64
}

// timedDevice records a span around every page read and write of the
// device it wraps and forwards everything else untouched.
type timedDevice struct {
	inner       disk.Device
	rec         *recorder
	read, write spanKind
	lane        uint8
	publish     *wire // set on a member's client-side decorator
	adopt       *wire // set on a member's server-side decorator
}

// begin opens a span for a call that arrived without a context: on the
// client goroutine it nests by the stack, on a server goroutine it
// hangs under the client span that is on the wire.
func (d *timedDevice) begin(kind spanKind) (spanID, bool) {
	if d.adopt != nil {
		return d.rec.begin(kind, d.lane, spanID(d.adopt.open.Load()), false), false
	}
	id := d.rec.begin(kind, d.lane, 0, true)
	d.announce(id)
	return id, true
}

func (d *timedDevice) announce(id spanID) {
	if d.publish != nil && !d.publish.open.CompareAndSwap(0, int32(id)) {
		d.publish.clashes.Add(1)
	}
}

func (d *timedDevice) end(id spanID, pop bool) {
	if d.publish != nil {
		d.publish.open.CompareAndSwap(int32(id), 0)
	}
	d.rec.end(id, pop)
}

func (d *timedDevice) ReadPage(p disk.PageID, buf []byte) error {
	if !d.rec.on.Load() {
		return d.inner.ReadPage(p, buf)
	}
	id, pop := d.begin(d.read)
	err := d.inner.ReadPage(p, buf)
	d.end(id, pop)
	return err
}

// ReadPageCtx implements disk.CtxReader, so wrapping a device never
// hides its per-query attribution path from the layer above.
func (d *timedDevice) ReadPageCtx(ctx context.Context, p disk.PageID, buf []byte) error {
	if !d.rec.on.Load() {
		return disk.ReadPageCtx(ctx, d.inner, p, buf)
	}
	parent, _ := ctx.Value(parentKey{}).(spanID)
	id := d.rec.begin(d.read, d.lane, parent, false)
	d.announce(id)
	err := disk.ReadPageCtx(context.WithValue(ctx, parentKey{}, id), d.inner, p, buf)
	d.end(id, false)
	return err
}

func (d *timedDevice) WritePage(p disk.PageID, buf []byte) error {
	if !d.rec.on.Load() {
		return d.inner.WritePage(p, buf)
	}
	id, pop := d.begin(d.write)
	err := d.inner.WritePage(p, buf)
	d.end(id, pop)
	return err
}

func (d *timedDevice) Allocate(n int) (disk.PageID, error) { return d.inner.Allocate(n) }
func (d *timedDevice) NumPages() int                       { return d.inner.NumPages() }
func (d *timedDevice) PageSize() int                       { return d.inner.PageSize() }
func (d *timedDevice) Head() disk.PageID                   { return d.inner.Head() }
func (d *timedDevice) Stats() disk.Stats                   { return d.inner.Stats() }
func (d *timedDevice) ResetStats()                         { d.inner.ResetStats() }
func (d *timedDevice) ResetHead()                          { d.inner.ResetHead() }
func (d *timedDevice) Close() error                        { return d.inner.Close() }

// timedScheduler records a span around every scheduling decision.
type timedScheduler struct {
	inner assembly.Scheduler
	rec   *recorder
}

// timedBatchScheduler additionally forwards assembly.BatchScheduler,
// which Options.ShardPrefetch demands of the scheduler it is given.
type timedBatchScheduler struct {
	timedScheduler
	batch assembly.BatchScheduler
}

// wrapScheduler decorates s, keeping its batch capability if it has one.
func wrapScheduler(rec *recorder, s assembly.Scheduler) assembly.Scheduler {
	ts := timedScheduler{inner: s, rec: rec}
	if b, ok := s.(assembly.BatchScheduler); ok {
		return &timedBatchScheduler{timedScheduler: ts, batch: b}
	}
	return &ts
}

func (s *timedScheduler) Name() string { return s.inner.Name() }
func (s *timedScheduler) Len() int     { return s.inner.Len() }

func (s *timedScheduler) Add(refs ...*assembly.Ref) {
	if !s.rec.on.Load() {
		s.inner.Add(refs...)
		return
	}
	id := s.rec.begin(spSchedAdd, 0, 0, true)
	s.inner.Add(refs...)
	s.rec.end(id, true)
}

func (s *timedScheduler) Next(head disk.PageID) *assembly.Ref {
	if !s.rec.on.Load() {
		return s.inner.Next(head)
	}
	id := s.rec.begin(spSchedNext, 0, 0, true)
	r := s.inner.Next(head)
	s.rec.end(id, true)
	return r
}

func (s *timedScheduler) TakeOnPage(p disk.PageID) []*assembly.Ref {
	if !s.rec.on.Load() {
		return s.inner.TakeOnPage(p)
	}
	id := s.rec.begin(spSchedTake, 0, 0, true)
	refs := s.inner.TakeOnPage(p)
	s.rec.end(id, true)
	return refs
}

func (s *timedBatchScheduler) Lanes() int               { return s.batch.Lanes() }
func (s *timedBatchScheduler) LaneOf(p disk.PageID) int { return s.batch.LaneOf(p) }
func (s *timedBatchScheduler) NextBatch(head disk.PageID) []*assembly.Ref {
	if !s.rec.on.Load() {
		return s.batch.NextBatch(head)
	}
	id := s.rec.begin(spSchedBatch, 0, 0, true)
	refs := s.batch.NextBatch(head)
	s.rec.end(id, true)
	return refs
}

// walLog is what the update workload needs of its log: the pool's
// contract plus the commit point and the epoch turnover.
type walLog interface {
	buffer.WAL
	Sync() error
	Close() error
	Tail() int64
}

// timedWAL records a span around every append and sync of a log.
type timedWAL struct {
	inner *wal.Writer
	rec   *recorder
}

func (w *timedWAL) Append(id disk.PageID, img []byte) (uint64, error) {
	if !w.rec.on.Load() {
		return w.inner.Append(id, img)
	}
	sp := w.rec.begin(spWalAppend, 0, 0, true)
	lsn, err := w.inner.Append(id, img)
	w.rec.end(sp, true)
	return lsn, err
}

func (w *timedWAL) SyncTo(lsn uint64) error {
	if !w.rec.on.Load() {
		return w.inner.SyncTo(lsn)
	}
	sp := w.rec.begin(spWalSyncTo, 0, 0, true)
	err := w.inner.SyncTo(lsn)
	w.rec.end(sp, true)
	return err
}

func (w *timedWAL) Sync() error {
	if !w.rec.on.Load() {
		return w.inner.Sync()
	}
	sp := w.rec.begin(spWalSync, 0, 0, true)
	err := w.inner.Sync()
	w.rec.end(sp, true)
	return err
}

func (w *timedWAL) Close() error { return w.inner.Close() }
func (w *timedWAL) Tail() int64  { return w.inner.Tail() }
