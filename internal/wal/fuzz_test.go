package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"

	"revelation/internal/disk"
	"revelation/internal/page"
)

// fuzzPageSize keeps the fuzzed devices — and so the corpus — small:
// the reader's framing does not depend on the page size, and the fuzz
// engine minimises a multi-kilobyte input byte by byte.
const fuzzPageSize = 128

// seedLog returns the raw bytes of a real log opened after LSN after:
// page-image records that span page boundaries interleaved with
// ownership records, one of them with a long owner name.
func seedLog(f *testing.F, after uint64) []byte {
	f.Helper()
	dev := disk.NewSim(fuzzPageSize, 0)
	w, err := OpenAfter(dev, after)
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

// rawRecord is a record's bytes with a correct CRC, built by hand so a
// seed can carry a payload no writer would produce.
func rawRecord(magic uint32, lsn uint64, id disk.PageID, payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, magic)
	b = binary.LittleEndian.AppendUint64(b, lsn)
	b = binary.LittleEndian.AppendUint32(b, uint32(id))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, 0)
	b = append(b, payload...)
	crc := crc32.Update(crc32.Update(0, castagnoli, b[:20]), castagnoli, b[recHdrSize:])
	binary.LittleEndian.PutUint32(b[20:], crc)
	return b
}

// rawDelta is a delta record's bytes.
func rawDelta(lsn uint64, id disk.PageID, prev uint64, off int, bytes []byte) []byte {
	p := binary.LittleEndian.AppendUint64(nil, prev)
	p = binary.LittleEndian.AppendUint16(p, uint16(off))
	return rawRecord(deltaMagic, lsn, id, append(p, bytes...))
}

// seedDeltaLogs returns logs whose first record is a page image of page
// 2 at LSN 1, followed by a delta that is valid, or one of no bytes,
// inside the header, past the page, or whose prev LSN is no earlier
// record or the wrong one.
func seedDeltaLogs() [][]byte {
	img := make([]byte, fuzzPageSize)
	pg := page.Wrap(img)
	pg.Init(0x5754)
	pg.Insert([]byte("a record to change"))
	pg.SetLSN(1)
	page.Stamp(img)
	base := rawRecord(recMagic, 1, 2, img)
	eight := []byte("8 bytes!")
	var logs [][]byte
	for _, d := range [][]byte{
		rawDelta(2, 2, 1, fuzzPageSize-20, eight),   // valid
		rawDelta(2, 2, 1, fuzzPageSize-20, nil),     // no bytes: a 10-byte payload
		rawDelta(2, 2, 1, page.HeaderSize-4, eight), // inside the header
		rawDelta(2, 2, 1, fuzzPageSize-4, eight),    // past the page
		rawDelta(2, 2, 2, fuzzPageSize-20, eight),   // prev is the delta itself
		rawDelta(2, 2, 0, fuzzPageSize-20, eight),   // prev 0
		rawDelta(2, 5, 1, fuzzPageSize-20, eight),   // prev is another page's
	} {
		logs = append(logs, append(append([]byte(nil), base...), d...))
	}
	// A chain, then a delta that skips a link of it.
	chain := append(append([]byte(nil), logs[0]...), rawDelta(3, 2, 2, 40, eight)...)
	logs = append(logs, chain, append(append([]byte(nil), logs[0]...), rawDelta(3, 2, 1, 40, eight)...))
	return logs
}

// FuzzWALScan lays arbitrary bytes over a device and walks them as a
// log, through the Reader and through ScanOwnership. Whatever the bytes
// — torn tails, bad lengths, ownership records with oversized names,
// deltas of no bytes, inside a header or past a page, base records off
// the front, at LSN 0 or with a payload — the walk must
// end (ErrEndOfLog or ErrTornTail, nothing else), never panic, hand out
// only records that lie inside the device, in one LSN sequence from 1 or
// from a base record at the front, and never allocate beyond
// the device's own size. Every record it hands out is then applied onto
// a data device: an applied delta leaves its page verified at its LSN,
// and a refused one leaves the page as it was.
func FuzzWALScan(f *testing.F) {
	good := seedLog(f, 0)
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
	for _, log := range seedDeltaLogs() {
		f.Add(log)
	}

	// Base records: a real log opened after LSN 1000, its base alone,
	// and bases no writer makes.
	based := seedLog(f, 1000)
	owner := []byte("\x01\x00\x00\x00s1") // pages [0, 1) to s1
	f.Add(based)
	f.Add(based[:recHdrSize])
	f.Add(rawRecord(baseMagic, 0, 0, nil))                                              // at LSN 0
	f.Add(rawRecord(baseMagic, 9, 0, []byte{1}))                                        // with a payload
	f.Add(append(rawRecord(baseMagic, 9, 0, nil), rawRecord(ownMagic, 9, 0, owner)...)) // a record at the base's own LSN
	f.Add(append(rawRecord(ownMagic, 1, 0, owner), rawRecord(baseMagic, 9, 0, nil)...)) // after a record

	const maxPages = 64
	f.Fuzz(func(t *testing.T, data []byte) {
		ps := fuzzPageSize
		if len(data) > maxPages*ps {
			data = data[:maxPages*ps]
		}
		pages := (len(data) + ps - 1) / ps
		dev := disk.NewSim(ps, pages)
		img := make([]byte, ps)
		for p := 0; p < pages; p++ {
			clear(img)
			copy(img, data[p*ps:])
			if err := dev.WritePage(disk.PageID(p), img); err != nil {
				t.Fatal(err)
			}
		}
		size := int64(pages * ps)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := NewReader(dev)
		var owned, payload int
		var last uint64
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
			want := last + 1
			if rec.Kind == RecBase {
				if at != 0 || rec.LSN == 0 {
					t.Fatalf("base record at LSN %d, offset %d", rec.LSN, at)
				}
				want = rec.LSN
			}
			if rec.LSN != want || r.LastLSN() != rec.LSN {
				t.Fatalf("record %d carries LSN %d, want %d (reader says %d)", steps, rec.LSN, want, r.LastLSN())
			}
			last = rec.LSN
			if r.Offset() <= at || r.Offset() > size {
				t.Fatalf("record at %d ends at %d on a %d-byte device", at, r.Offset(), size)
			}
			switch rec.Kind {
			case RecBase:
			case RecPage, RecDelta:
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

		// Redo onto a data device as large as any page the records name
		// that it will hold; records of other pages are passed over.
		redo := disk.NewSim(ps, maxPages)
		buf, was := make([]byte, ps), make([]byte, ps)
		r = NewReader(dev)
		for {
			rec, err := r.Next()
			if err != nil {
				break
			}
			if rec.Kind == RecOwnership || rec.Kind == RecBase || int(rec.Page) >= maxPages {
				continue
			}
			if err := redo.ReadPage(rec.Page, was); err != nil {
				t.Fatal(err)
			}
			applied, err := ApplyRecord(redo, rec, buf)
			if err := redo.ReadPage(rec.Page, img); err != nil {
				t.Fatal(err)
			}
			switch {
			case err != nil && !bytes.Equal(img, was):
				t.Fatalf("record %d refused (%v) but its page changed", rec.LSN, err)
			case rec.Kind == RecDelta && applied && (page.Verify(img) != nil || page.Wrap(img).LSN() != rec.LSN):
				t.Fatalf("delta %d applied, but its page does not verify at its LSN", rec.LSN)
			}
		}
	})
}
