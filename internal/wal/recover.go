package wal

import (
	"errors"
	"fmt"

	"revelation/internal/disk"
)

// scan walks the log from the front using a Reader, invoking fn for
// every valid record in order, and stops at the log's end. It returns
// the byte offset of the valid prefix's end, the next LSN after the
// last valid record, and whether the stop was a torn tail (an
// interrupted append) rather than a clean zero-magic end. fn may be
// nil. An error from fn aborts the scan.
func scan(dev disk.Device, fn func(rec Record) error) (end int64, nextLSN uint64, torn bool, err error) {
	r := NewReader(dev)
	for {
		rec, rerr := r.Next()
		if rerr != nil {
			return r.Offset(), r.LastLSN() + 1, errors.Is(rerr, ErrTornTail), nil
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return r.Offset(), r.LastLSN() + 1, false, err
			}
		}
	}
}

// ScanOwnership walks a log's valid prefix and returns every ownership
// (cutover) record in LSN order, discarding any torn tail. This is the
// recovery path for a migration log: the returned records replayed
// onto a freshly joined router rebuild exactly the cutovers that were
// durable before a crash.
func ScanOwnership(dev disk.Device) ([]Record, error) {
	var recs []Record
	_, _, _, err := scan(dev, func(rec Record) error {
		if rec.Kind == RecOwnership {
			recs = append(recs, rec)
		}
		return nil
	})
	return recs, err
}

// Options configures Recover. It has no settings; callers pass the
// zero value.
type Options struct{}

// Result reports what one recovery pass did.
type Result struct {
	// Records is the number of valid log records scanned, a base record
	// not counted.
	Records int
	// Redone counts records applied onto the data device.
	Redone int
	// SkippedOlder counts records whose page was already current (its
	// on-disk LSN was at least the record's and its checksum verified).
	SkippedOlder int
	// Ownership counts cutover records seen (they carry no page image;
	// ScanOwnership retrieves their contents).
	Ownership int
	// TornTail reports whether the scan stopped at an interrupted
	// append rather than a clean log end.
	TornTail bool
	// TailOffset is the byte offset of the valid log prefix's end.
	TailOffset int64
	// NextLSN is the LSN a writer resuming this log would assign next.
	NextLSN uint64
}

func (r *Result) String() string {
	tail := "clean tail"
	if r.TornTail {
		tail = "torn tail discarded"
	}
	return fmt.Sprintf("wal: recovered %d records (%d redone, %d current), %s, next LSN %d",
		r.Records, r.Redone, r.SkippedOlder, tail, r.NextLSN)
}

// Recover replays the log on walDev onto dataDev: it scans the valid
// prefix, discards the torn tail, and applies every page record with
// ApplyRecord (a delta that meets a gap fails it). Redo is idempotent —
// recovering twice is a no-op the second time — and restores exactly
// the state of the last completed Sync. The data device is grown as
// needed to hold logged pages allocated after the last data flush.
func Recover(walDev, dataDev disk.Device, _ Options) (*Result, error) {
	res := &Result{}
	buf := make([]byte, dataDev.PageSize())
	end, next, torn, err := scan(walDev, func(rec Record) error {
		if rec.Kind == RecBase {
			return nil
		}
		res.Records++
		if rec.Kind == RecOwnership {
			// Cutover records carry no page image; redo ignores them
			// (the fleet migrator replays them via ScanOwnership).
			res.Ownership++
			return nil
		}
		applied, aerr := ApplyRecord(dataDev, rec, buf)
		if aerr != nil {
			return fmt.Errorf("wal: recover: %w", aerr)
		}
		if !applied {
			res.SkippedOlder++
			return nil
		}
		res.Redone++
		return nil
	})
	if err != nil {
		return res, err
	}
	res.TornTail = torn
	res.TailOffset = end
	res.NextLSN = next
	return res, nil
}
