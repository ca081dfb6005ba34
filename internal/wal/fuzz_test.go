package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"revelation/internal/disk"
)

// fuzzPageSize keeps the fuzzed devices — and so the corpus — small:
// the reader's framing does not depend on the page size, and the fuzz
// engine minimises a multi-kilobyte input byte by byte.
const fuzzPageSize = 128

// seedLog returns the raw bytes of a real log: page-image records that
// span page boundaries interleaved with ownership records, one of them
// with a long owner name.
func seedLog(f *testing.F) []byte {
	f.Helper()
	dev := disk.NewSim(fuzzPageSize, 0)
	w, err := Open(dev)
	if err != nil {
		f.Fatal(err)
	}
	img := make([]byte, dev.PageSize())
	for i := 0; i < 3; i++ {
		for j := range img {
			img[j] = byte(i + j)
		}
		if _, err := w.Append(disk.PageID(i*7), img); err != nil {
			f.Fatal(err)
		}
		owner := "s1"
		if i == 2 {
			owner = string(bytes.Repeat([]byte("member-"), 30))
		}
		if _, err := w.AppendOwnership(disk.PageID(i*64), disk.PageID(i*64+64), owner); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		f.Fatal(err)
	}
	raw := make([]byte, 0, dev.NumPages()*dev.PageSize())
	for p := 0; p < dev.NumPages(); p++ {
		if err := dev.ReadPage(disk.PageID(p), img); err != nil {
			f.Fatal(err)
		}
		raw = append(raw, img...)
	}
	return raw
}

// FuzzWALScan lays arbitrary bytes over a device and walks them as a
// log, through the Reader and through ScanOwnership. Whatever the bytes
// — torn tails, bad lengths, ownership records with oversized names —
// the walk must end (ErrEndOfLog or ErrTornTail, nothing else), never
// panic, hand out only records that lie inside the device, and never
// allocate beyond the device's own size.
func FuzzWALScan(f *testing.F) {
	good := seedLog(f)
	f.Add(good)
	f.Add(good[:len(good)/2])                        // torn mid-record
	f.Add(good[:recHdrSize+7])                       // torn inside the first image
	f.Add(append([]byte(nil), good[:recHdrSize]...)) // a header and nothing else
	huge := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(huge[16:], maxImage) // a length far past the device
	f.Add(huge)
	neg := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(neg[16:], 0xFFFFFFFF)
	f.Add(neg)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 3*fuzzPageSize))

	const maxPages = 64
	f.Fuzz(func(t *testing.T, data []byte) {
		ps := fuzzPageSize
		if len(data) > maxPages*ps {
			data = data[:maxPages*ps]
		}
		pages := (len(data) + ps - 1) / ps
		dev := disk.NewSim(ps, pages)
		page := make([]byte, ps)
		for p := 0; p < pages; p++ {
			clear(page)
			copy(page, data[p*ps:])
			if err := dev.WritePage(disk.PageID(p), page); err != nil {
				t.Fatal(err)
			}
		}
		size := int64(pages * ps)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := NewReader(dev)
		var owned, payload int
		for steps := int64(0); ; steps++ {
			if steps > size/recHdrSize {
				t.Fatalf("scan of a %d-byte device did not end after %d records", size, steps)
			}
			at := r.Offset()
			rec, err := r.Next()
			if err != nil {
				if !errors.Is(err, ErrEndOfLog) && !errors.Is(err, ErrTornTail) {
					t.Fatalf("Next: %v, want end of log or torn tail", err)
				}
				if r.Offset() != at {
					t.Fatalf("a failed Next moved the reader from %d to %d", at, r.Offset())
				}
				break
			}
			if rec.LSN != uint64(steps)+1 || r.LastLSN() != rec.LSN {
				t.Fatalf("record %d carries LSN %d (reader says %d)", steps, rec.LSN, r.LastLSN())
			}
			if r.Offset() <= at || r.Offset() > size {
				t.Fatalf("record at %d ends at %d on a %d-byte device", at, r.Offset(), size)
			}
			switch rec.Kind {
			case RecPage:
				payload += len(rec.Img)
			case RecOwnership:
				owned++
				payload += len(rec.Owner)
				if rec.Hi <= rec.Lo {
					t.Fatalf("ownership record with empty range [%d, %d)", rec.Lo, rec.Hi)
				}
			default:
				t.Fatalf("record of unknown kind %d", rec.Kind)
			}
		}
		recs, err := ScanOwnership(dev)
		if err != nil {
			t.Fatalf("ScanOwnership: %v", err)
		}
		runtime.ReadMemStats(&after)
		if len(recs) != owned {
			t.Fatalf("ScanOwnership returned %d records, the reader saw %d", len(recs), owned)
		}
		if int64(payload) > size {
			t.Fatalf("records carry %d payload bytes, the device holds %d", payload, size)
		}
		// Two walks, each copying out at most the device once, plus the
		// readers' page buffers and the ownership slice; a length field
		// believed before it was checked would blow through this.
		if got, limit := int64(after.TotalAlloc-before.TotalAlloc), 3*size+16<<10; got > limit {
			t.Fatalf("walking a %d-byte device allocated %d bytes (limit %d)", size, got, limit)
		}
	})
}
