// Package revelation is a from-scratch Go reproduction of "Efficient
// Assembly of Complex Objects" (Tom Keller, Goetz Graefe, David Maier;
// SIGMOD 1991): the assembly operator of the Volcano query processing
// system and every substrate it runs on — a page-addressed device
// model with seek accounting, a buffer manager, heap files, a B+-tree,
// an object layer with OIDs and pointer swizzling, and a Volcano-style
// iterator engine.
//
// The package is the supported public surface: an Engine couples a
// device, buffer pool, and object store; templates describe complex
// objects; Assemble builds the physical operator that turns a set of
// root references into pointer-swizzled in-memory complex objects.
//
//	eng, _ := revelation.New(revelation.Config{DataPages: 128})
//	defer eng.Close()
//	... eng.Put(obj) ...
//	it := eng.Assemble(roots, tmpl, revelation.Options{
//	    Window:    50,
//	    Scheduler: revelation.Elevator,
//	})
//	for inst, err := it.Next(); ... { inst.(*revelation.Instance) ... }
//
// Deeper control (custom operators, schedulers, storage layout) lives
// in the sub-packages under internal/, which examples in this
// repository use directly.
package revelation

import (
	"errors"
	"fmt"

	"revelation/internal/assembly"
	"revelation/internal/btree"
	"revelation/internal/buffer"
	"revelation/internal/disk"
	"revelation/internal/expr"
	"revelation/internal/heap"
	"revelation/internal/object"
	"revelation/internal/query"
	"revelation/internal/volcano"
)

// Re-exported core types: the object model, templates, and the
// assembled representation.
type (
	// OID is an object identifier; zero is the nil reference.
	OID = object.OID
	// Object is a storage-layer object: integer attributes plus
	// embedded inter-object references.
	Object = object.Object
	// Class describes an object's shape in the catalog.
	Class = object.Class
	// Catalog is the class registry.
	Catalog = object.Catalog
	// RID is a record's physical address.
	RID = heap.RID
	// Template drives the assembly operator: structure plus sharing
	// statistics and predicates with selectivities.
	Template = assembly.Template
	// Instance is one component of an assembled, pointer-swizzled
	// complex object.
	Instance = assembly.Instance
	// Options configure an assembly operator.
	Options = assembly.Options
	// Stats are the assembly operator's counters.
	Stats = assembly.Stats
	// Iterator is the Volcano open/next/close operator interface.
	Iterator = volcano.Iterator
	// Predicate is a condition over one object, with a selectivity
	// estimate used for scheduling.
	Predicate = expr.Predicate
	// PartialRoot is the stacked-assembly input item (Fig. 17).
	PartialRoot = assembly.PartialRoot
	// DeviceStats are the simulated device's counters (reads, seek
	// distances) — the paper's performance metric.
	DeviceStats = disk.Stats
)

// Scheduling policies (paper Section 6.2).
const (
	// DepthFirst is object-at-a-time assembly.
	DepthFirst = assembly.DepthFirst
	// BreadthFirst resolves references in discovery order across the
	// window.
	BreadthFirst = assembly.BreadthFirst
	// Elevator resolves the reference nearest the disk head (SCAN).
	Elevator = assembly.Elevator
)

// Done is returned by Iterator.Next at end of stream.
var Done = volcano.Done

// NilOID is the null object reference.
const NilOID = object.NilOID

// Config describes an engine.
type Config struct {
	// Path persists the database in a file; empty runs in memory on
	// the simulated device.
	Path string
	// PageSize defaults to the paper's 1 KB.
	PageSize int
	// BufferPages sizes the buffer pool (default 256 frames).
	BufferPages int
	// DataPages sizes the heap file extent (default 1024 pages).
	DataPages int
	// BTreeLocator stores the OID → address mapping in a disk
	// B+-tree instead of a resident map.
	BTreeLocator bool
}

// Engine couples a device, a buffer pool, and an object store into a
// ready-to-use storage stack.
type Engine struct {
	Device disk.Device
	Pool   *buffer.Pool
	Store  *object.Store

	closed bool
}

// New creates an engine per the configuration.
func New(cfg Config) (*Engine, error) {
	if cfg.PageSize <= 0 {
		cfg.PageSize = disk.DefaultPageSize
	}
	if cfg.BufferPages <= 0 {
		cfg.BufferPages = 256
	}
	if cfg.DataPages <= 0 {
		cfg.DataPages = 1024
	}
	var dev disk.Device
	if cfg.Path != "" {
		fd, err := disk.OpenFile(cfg.Path, cfg.PageSize)
		if err != nil {
			return nil, err
		}
		dev = fd
	} else {
		dev = disk.NewSim(cfg.PageSize, 0)
	}
	pool := buffer.New(dev, cfg.BufferPages)
	file, err := heap.Create(pool, cfg.DataPages)
	if err != nil {
		dev.Close()
		return nil, err
	}
	var loc object.Locator
	if cfg.BTreeLocator {
		tree, err := btree.Create(pool)
		if err != nil {
			dev.Close()
			return nil, err
		}
		loc = object.NewBTreeLocator(tree)
	} else {
		loc = object.NewMapLocator()
	}
	return &Engine{
		Device: dev,
		Pool:   pool,
		Store:  object.NewStore(file, loc, object.NewCatalog()),
	}, nil
}

// Catalog returns the engine's class catalog.
func (e *Engine) Catalog() *Catalog { return e.Store.Catalog }

// Put stores an object and registers its location.
func (e *Engine) Put(o *Object) (RID, error) { return e.Store.Put(o) }

// Get loads an object by OID.
func (e *Engine) Get(oid OID) (*Object, error) { return e.Store.Get(oid) }

// Assemble builds an assembly operator over the given root references.
// Drive it with Open/Next/Close (Next yields *Instance items), or use
// AssembleAll.
func (e *Engine) Assemble(roots []OID, tmpl *Template, opts Options) Iterator {
	items := make([]volcano.Item, len(roots))
	for i, r := range roots {
		items[i] = r
	}
	return assembly.New(volcano.NewSlice(items), e.Store, tmpl, opts)
}

// AssembleFrom builds an assembly operator over an arbitrary input
// iterator (OIDs, pre-fetched objects, partial instances, or
// PartialRoot items).
func (e *Engine) AssembleFrom(input Iterator, tmpl *Template, opts Options) Iterator {
	return assembly.New(input, e.Store, tmpl, opts)
}

// AssembleAll drains an assembly of the given roots and returns the
// assembled complex objects.
func (e *Engine) AssembleAll(roots []OID, tmpl *Template, opts Options) ([]*Instance, error) {
	it := e.Assemble(roots, tmpl, opts)
	items, err := volcano.Drain(it)
	if err != nil {
		return nil, err
	}
	out := make([]*Instance, len(items))
	for i, item := range items {
		inst, ok := item.(*Instance)
		if !ok {
			return nil, fmt.Errorf("revelation: assembly emitted %T", item)
		}
		out[i] = inst
	}
	return out, nil
}

// DeviceStats reports the device counters (reads, seek distance): the
// paper's metric is DeviceStats().AvgSeekPerRead().
func (e *Engine) DeviceStats() DeviceStats { return e.Device.Stats() }

// ResetMeasurements clears device and pool counters and parks the head
// so a measured run starts clean; set cold to also empty the buffer
// pool.
func (e *Engine) ResetMeasurements(cold bool) error {
	if cold {
		if err := e.Pool.EvictAll(); err != nil {
			return err
		}
	}
	e.Pool.ResetStats()
	e.Device.ResetStats()
	e.Device.ResetHead()
	return nil
}

// Flush writes all dirty buffered pages to the device.
func (e *Engine) Flush() error { return e.Pool.FlushAll() }

// Close flushes and releases the engine.
func (e *Engine) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	if err := e.Pool.Close(); err != nil {
		return errors.Join(err, e.Device.Close())
	}
	return e.Device.Close()
}

// Drain pulls every item from an iterator (a convenience re-export).
func Drain(it Iterator) ([]any, error) { return volcano.Drain(it) }

// Query is a selection over a set of complex objects, in the
// Revelation style of the paper's Figure 1: run it naively
// (object-at-a-time) or reveal it into an assembly-based plan.
type Query = query.Query

// NaiveExec runs q object-at-a-time — the baseline the paper
// criticizes; useful for verifying revealed plans and for measuring
// their advantage.
func (e *Engine) NaiveExec(q *Query) ([]*Instance, error) {
	return query.NaiveExec(e.Store, q)
}

// RevealExec rewrites q into a physical plan around the assembly
// operator (predicates pushed into the template, predicate-first
// scheduling) and drains it.
func (e *Engine) RevealExec(q *Query, opts Options) ([]*Instance, error) {
	return query.RevealExec(e.Store, q, opts)
}

// Reveal returns the physical plan for q without executing it;
// volcano.Explain renders it.
func (e *Engine) Reveal(q *Query, opts Options) (Iterator, error) {
	return query.Reveal(e.Store, q, opts)
}

// Explain renders a physical plan tree as text.
func Explain(it Iterator) string { return volcano.Explain(it) }
