package disk

import (
	"sync/atomic"

	"revelation/internal/metrics"
	"revelation/internal/qtrace"
	"revelation/internal/trace"
)

// Arm is the head model of the paper's dedicated device, and the one
// place its metric is booked: every device that has a head of its own
// — Sim over either medium, the page-service client — embeds one and
// calls Seek once per physical (or, over a wire, logical) access.
//
// The counters are registry-attachable metric cells, so Stats() and a
// live /metrics scrape read the very cells Seek updates and need no
// lock. Seek, ResetHead and SetTracer run under the owning device's
// mutex, which is where the order of accesses — and therefore every
// seek distance — is decided. The head is published there as an atomic
// cell, so Head is a load that takes no lock: a scheduling step asks
// for it once per reference. The tracer is a plain field.
type Arm struct {
	head atomic.Uint32 // a PageID
	tr   *trace.Tracer

	reads     metrics.Counter
	writes    metrics.Counter
	seekTotal metrics.Counter
	seekReads metrics.Counter
	maxSeek   metrics.Gauge
}

// Seek moves the head to p and books the access: the cells behind
// Stats, the read on sp (nil-safe), and — with a tracer installed — a
// disk event carrying the head position before the access and the
// distance it cost. Caller holds the owning device's mutex.
func (a *Arm) Seek(p PageID, read bool, sp *qtrace.Span) {
	prev := a.Head()
	dist := int64(p) - int64(prev)
	if dist < 0 {
		dist = -dist
	}
	a.head.Store(uint32(p))
	a.seekTotal.Add(dist)
	a.maxSeek.SetMax(dist)
	kind := trace.KindWrite
	if read {
		kind = trace.KindRead
		a.reads.Inc()
		a.seekReads.Add(dist)
		sp.OnRead(dist)
	} else {
		a.writes.Inc()
	}
	if a.tr != nil {
		a.tr.Disk(kind, int64(p), int64(prev), dist, sp.QID())
	}
}

// Head reports the head position as of the last Seek or ResetHead. It
// takes no lock; a caller that needs it to stay put holds the device's
// mutex.
func (a *Arm) Head() PageID { return PageID(a.head.Load()) }

// ResetHead parks the head at page 0 without booking a seek. Caller
// holds the device's mutex.
func (a *Arm) ResetHead() { a.head.Store(0) }

// SetTracer installs the tracer Seek emits disk events to; nil turns
// them off, and the disabled path pays one branch. Caller holds the
// device's mutex.
func (a *Arm) SetTracer(t *trace.Tracer) { a.tr = t }

// Stats snapshots the cells. Safe to call while accesses are in flight.
func (a *Arm) Stats() Stats {
	return Stats{
		Reads:     a.reads.Value(),
		Writes:    a.writes.Value(),
		SeekTotal: a.seekTotal.Value(),
		SeekReads: a.seekReads.Value(),
		MaxSeek:   a.maxSeek.Value(),
	}
}

// ResetStats zeroes the cells without moving the head.
func (a *Arm) ResetStats() {
	a.reads.Reset()
	a.writes.Reset()
	a.seekTotal.Reset()
	a.seekReads.Reset()
	a.maxSeek.Reset()
}

// Register attaches the cells to r under the asm_disk_* families,
// labeled with the device name, and the head as a scrape-time gauge.
// size exports the device size the same way; the owning device
// supplies it because reading it takes the device's mutex.
func (a *Arm) Register(r *metrics.Registry, dev string, size metrics.GaugeFunc) {
	r.Attach("asm_disk_reads_total", "Physical page reads.", &a.reads, "dev", dev)
	r.Attach("asm_disk_writes_total", "Physical page writes.", &a.writes, "dev", dev)
	r.Attach("asm_disk_seek_pages_total", "Total head movement in pages, reads and writes.", &a.seekTotal, "dev", dev)
	r.Attach("asm_disk_read_seek_pages_total", "Head movement attributable to reads only.", &a.seekReads, "dev", dev)
	r.Attach("asm_disk_max_seek_pages", "Largest single seek observed.", &a.maxSeek, "dev", dev)
	head := metrics.GaugeFunc(func() int64 { return int64(a.Head()) })
	r.Attach("asm_disk_head_position", "Current head position in pages.", head, "dev", dev)
	r.Attach("asm_disk_size_pages", "Device size in pages.", size, "dev", dev)
}
