package main

import (
	"bytes"
	"fmt"
	"time"

	"revelation/internal/assembly"
	"revelation/internal/disk"
	"revelation/internal/gen"
	"revelation/internal/object"
	"revelation/internal/page"
	"revelation/internal/wal"
)

// oracle holds what a correct engine must hand back, computed at set-up
// by the naive route: a database generated from the same seed on a
// plain local disk, read one Store.Get at a time.
type oracle struct {
	count  []int32  // by root OID: components in the complex object
	digest []uint64 // by root OID: digest of the depth-first traversal
	ints1  []int32  // by OID: generated Ints[1] (update workload)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// mix folds one component into a traversal digest.
func mix(h uint64, o *object.Object) uint64 {
	h = (h ^ uint64(o.OID)) * fnvPrime
	for _, v := range o.Ints {
		h = (h ^ uint64(uint32(v))) * fnvPrime
	}
	return h
}

func buildOracle(s *spec, seed int64) (*oracle, error) {
	cfg := s.cfg
	cfg.Seed = seed
	cfg.BufferPages = 0
	db, err := gen.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: oracle: %w", s.name, err)
	}
	defer db.Pool.Close()
	or := &oracle{}
	if s.update {
		or.ints1 = make([]int32, db.NextOID)
		for oid := object.OID(1); oid < db.NextOID; oid++ {
			o, err := db.Store.Get(oid)
			if err != nil {
				return nil, fmt.Errorf("%s: oracle: %w", s.name, err)
			}
			or.ints1[oid] = o.Ints[1]
		}
		return or, nil
	}
	or.count = make([]int32, db.NextOID)
	or.digest = make([]uint64, db.NextOID)
	var walk func(oid object.OID, h uint64) (int32, uint64, error)
	walk = func(oid object.OID, h uint64) (int32, uint64, error) {
		o, err := db.Store.Get(oid)
		if err != nil {
			return 0, 0, err
		}
		n, h := int32(1), mix(h, o)
		for _, ref := range o.Refs {
			if ref.IsNil() {
				continue
			}
			k, hh, err := walk(ref, h)
			if err != nil {
				return 0, 0, err
			}
			n, h = n+k, hh
		}
		return n, h, nil
	}
	for _, root := range db.Roots {
		n, h, err := walk(root, fnvOffset)
		if err != nil {
			return nil, fmt.Errorf("%s: oracle: %w", s.name, err)
		}
		or.count[root], or.digest[root] = n, h
	}
	return or, nil
}

// matches walks an assembled object through its swizzled pointers and
// compares component count and digest with the naive traversal. It
// allocates nothing, so the timed loop's allocation counts stay the
// engine's.
func (or *oracle) matches(in *assembly.Instance) bool {
	root := in.OID()
	if int(root) >= len(or.count) || or.count[root] == 0 {
		return false
	}
	n, h := digestInstance(in, fnvOffset)
	return n == or.count[root] && h == or.digest[root]
}

func digestInstance(in *assembly.Instance, h uint64) (int32, uint64) {
	n, h := int32(1), mix(h, in.Object)
	for _, c := range in.Children {
		if c == nil {
			continue
		}
		k, hh := digestInstance(c, h)
		n, h = n+k, hh
	}
	return n, h
}

// walAudit checks durability in the counted pass of the update
// workload. The data device's decorator hands it every page image the
// pool writes back; at each checkpoint it replays the epoch's log with
// wal.Recover and demands that the replayed pages hold every value
// committed in the epoch and are byte-identical to what was flushed.
//
// The replay target is an empty device, not a copy of the data device
// as of the epoch's start: a fresh log restarts LSNs at 1 while data
// pages keep the LSNs of earlier epochs, so redo-if-newer would skip
// every record of a second epoch (see README.md, "Findings").
type walAudit struct {
	env     *env
	flushed map[disk.PageID][]byte // last image written back this epoch
	touched []object.OID           // components committed this epoch
	retired *disk.Sim              // the closed epoch's log, awaiting verifyEpoch
	totals  logTotals
}

// logTotals sums the retired logs of a pass.
type logTotals struct {
	bytes, pageWrites int64
	recoverTime       time.Duration
}

func newWalAudit(e *env) *walAudit {
	return &walAudit{env: e, flushed: map[disk.PageID][]byte{}}
}

// auditedDevice is the data device of a traced update env: a
// timedDevice that also copies written-back images to the audit.
type auditedDevice struct {
	*timedDevice
	audit *walAudit
}

func (d auditedDevice) WritePage(p disk.PageID, buf []byte) error {
	if d.rec.on.Load() {
		d.audit.flushed[p] = append(d.audit.flushed[p][:0], buf...)
	}
	return d.timedDevice.WritePage(p, buf)
}

// retire takes over the log of the epoch a checkpoint just closed.
func (a *walAudit) retire(log *disk.Sim, tail int64) {
	a.retired = log
	a.totals.bytes += tail
	a.totals.pageWrites += log.Stats().Writes
}

// verifyEpoch runs after the checkpointing transaction has returned,
// so none of it is charged to a span.
func (a *walAudit) verifyEpoch() error {
	e := a.env
	replay := disk.New(0)
	start := time.Now()
	res, err := wal.Recover(a.retired, replay, wal.Options{})
	a.totals.recoverTime += time.Since(start)
	a.retired = nil
	if err != nil {
		return fmt.Errorf("update-wal: audit: %w", err)
	}
	if res.Records < len(a.touched) || res.TornTail {
		return fmt.Errorf("update-wal: audit: log holds %d records (torn=%v) for %d committed updates",
			res.Records, res.TornTail, len(a.touched))
	}
	buf := make([]byte, replay.PageSize())
	pages := map[disk.PageID]bool{}
	for _, oid := range a.touched {
		rid, ok, err := e.db.Store.WhereIs(oid)
		if err != nil || !ok {
			return fmt.Errorf("update-wal: audit: locate %v: found=%v err=%v", oid, ok, err)
		}
		if err := replay.ReadPage(rid.Page, buf); err != nil {
			return fmt.Errorf("update-wal: audit: page %d missing from the replayed log: %w", rid.Page, err)
		}
		rec, err := page.Wrap(buf).Get(rid.Slot)
		if err != nil {
			return fmt.Errorf("update-wal: audit: %v: %w", oid, err)
		}
		o, err := object.Decode(rec)
		if err != nil {
			return fmt.Errorf("update-wal: audit: %v: %w", oid, err)
		}
		if o.Ints[1] != e.shadow[oid] {
			return fmt.Errorf("update-wal: audit: %v replays as %d, committed %d", oid, o.Ints[1], e.shadow[oid])
		}
		pages[rid.Page] = true
	}
	if len(pages) != len(a.flushed) {
		return fmt.Errorf("update-wal: audit: %d pages updated, %d flushed at the checkpoint", len(pages), len(a.flushed))
	}
	for p, img := range a.flushed {
		if err := replay.ReadPage(p, buf); err != nil {
			return fmt.Errorf("update-wal: audit: flushed page %d not in the log: %w", p, err)
		}
		if err := page.Verify(buf); err != nil {
			return fmt.Errorf("update-wal: audit: replayed page %d: %w", p, err)
		}
		if !bytes.Equal(buf, img) {
			return fmt.Errorf("update-wal: audit: replayed page %d differs from the flushed image", p)
		}
	}
	clear(a.flushed)
	a.touched = a.touched[:0]
	return nil
}
