package page

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"revelation/internal/disk"
)

func newPage(t *testing.T, size int) *Page {
	t.Helper()
	p := Wrap(make([]byte, size))
	p.Init(1)
	return p
}

func TestInsertGetRoundTrip(t *testing.T) {
	p := newPage(t, 1024)
	recs := [][]byte{
		[]byte("alpha"),
		[]byte("beta"),
		[]byte(""),
		bytes.Repeat([]byte{0xAB}, 200),
	}
	var slots []SlotID
	for _, r := range recs {
		s, err := p.Insert(r)
		if err != nil {
			t.Fatalf("Insert(%q): %v", r, err)
		}
		slots = append(slots, s)
	}
	for i, s := range slots {
		got, err := p.Get(s)
		if err != nil {
			t.Fatalf("Get(%d): %v", s, err)
		}
		if !bytes.Equal(got, recs[i]) {
			t.Errorf("slot %d: got %q want %q", s, got, recs[i])
		}
	}
	if p.LiveRecords() != len(recs) {
		t.Errorf("LiveRecords = %d, want %d", p.LiveRecords(), len(recs))
	}
}

func TestInsertUntilFull(t *testing.T) {
	p := newPage(t, 1024)
	rec := make([]byte, 96)
	n := 0
	for {
		if _, err := p.Insert(rec); err != nil {
			if !errors.Is(err, ErrPageFull) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		n++
	}
	// The paper's geometry: 9 objects of 96 bytes per 1 KB page.
	if n != 9 {
		t.Errorf("96-byte records per 1 KB page = %d, want 9", n)
	}
}

func TestRecordTooLarge(t *testing.T) {
	p := newPage(t, 256)
	if _, err := p.Insert(make([]byte, 256)); !errors.Is(err, ErrRecordSize) {
		t.Errorf("oversized insert err = %v, want ErrRecordSize", err)
	}
	if _, err := p.Insert(make([]byte, MaxRecordSize(256))); err != nil {
		t.Errorf("max-size insert failed: %v", err)
	}
}

func TestDeleteAndReuse(t *testing.T) {
	p := newPage(t, 1024)
	s1, _ := p.Insert([]byte("one"))
	s2, err := p.Insert([]byte("two"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Delete(s1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(s1); !errors.Is(err, ErrDeadSlot) {
		t.Errorf("Get deleted slot err = %v, want ErrDeadSlot", err)
	}
	if err := p.Delete(s1); !errors.Is(err, ErrDeadSlot) {
		t.Errorf("double delete err = %v, want ErrDeadSlot", err)
	}
	// Reinsert must reuse the dead slot.
	s3, err := p.Insert([]byte("three"))
	if err != nil {
		t.Fatal(err)
	}
	if s3 != s1 {
		t.Errorf("dead slot not reused: got %d want %d", s3, s1)
	}
	got, err := p.Get(s2)
	if err != nil || string(got) != "two" {
		t.Errorf("surviving record damaged: %q, %v", got, err)
	}
}

func TestDeleteBadSlot(t *testing.T) {
	p := newPage(t, 512)
	if err := p.Delete(7); !errors.Is(err, ErrBadSlot) {
		t.Errorf("Delete(7) err = %v, want ErrBadSlot", err)
	}
	if _, err := p.Get(3); !errors.Is(err, ErrBadSlot) {
		t.Errorf("Get(3) err = %v, want ErrBadSlot", err)
	}
}

// update replaces the record in slot s the way a caller of Resize does.
func update(p *Page, s SlotID, rec []byte) error {
	dst, err := p.Resize(s, len(rec))
	copy(dst, rec)
	return err
}

func TestUpdateInPlace(t *testing.T) {
	p := newPage(t, 512)
	s, _ := p.Insert([]byte("aaaa"))
	if err := update(p, s, []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	got, _ := p.Get(s)
	if string(got) != "bbbb" {
		t.Errorf("in-place update: got %q", got)
	}
}

func TestUpdateResize(t *testing.T) {
	p := newPage(t, 512)
	s, _ := p.Insert([]byte("short"))
	other, _ := p.Insert([]byte("other"))
	long := bytes.Repeat([]byte("x"), 100)
	if err := update(p, s, long); err != nil {
		t.Fatal(err)
	}
	got, _ := p.Get(s)
	if !bytes.Equal(got, long) {
		t.Errorf("grown update lost data")
	}
	if g, _ := p.Get(other); string(g) != "other" {
		t.Errorf("neighbour record damaged: %q", g)
	}
	if err := update(p, s, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Get(s); string(got) != "y" {
		t.Errorf("shrunk update: got %q", got)
	}
}

func TestUpdateFailureLeavesRecordIntact(t *testing.T) {
	// Found by FuzzPageOps: a grown update that cannot fit must leave
	// the old record readable, not destroy it.
	p := newPage(t, 256)
	s, err := p.Insert([]byte("precious"))
	if err != nil {
		t.Fatal(err)
	}
	// Fill the rest of the page.
	for {
		if _, err := p.Insert(make([]byte, 40)); err != nil {
			break
		}
	}
	if err := update(p, s, make([]byte, 200)); !errors.Is(err, ErrPageFull) {
		t.Fatalf("oversized update err = %v, want ErrPageFull", err)
	}
	got, err := p.Get(s)
	if err != nil {
		t.Fatalf("record destroyed by failed update: %v", err)
	}
	if string(got) != "precious" {
		t.Fatalf("record corrupted by failed update: %q", got)
	}
}

func TestCompactionReclaimsSpace(t *testing.T) {
	p := newPage(t, 1024)
	var slots []SlotID
	rec := make([]byte, 90)
	for {
		s, err := p.Insert(rec)
		if err != nil {
			break
		}
		slots = append(slots, s)
	}
	// Free every other record; the holes are not contiguous, so a new
	// large record only fits after compaction.
	for i := 0; i < len(slots); i += 2 {
		if err := p.Delete(slots[i]); err != nil {
			t.Fatal(err)
		}
	}
	big := make([]byte, 180)
	for i := range big {
		big[i] = 0x5A
	}
	if _, err := p.Insert(big); err != nil {
		t.Fatalf("insert after fragmentation: %v", err)
	}
	// Survivors intact?
	for i := 1; i < len(slots); i += 2 {
		got, err := p.Get(slots[i])
		if err != nil {
			t.Fatalf("survivor %d: %v", slots[i], err)
		}
		if !bytes.Equal(got, rec) {
			t.Errorf("survivor %d corrupted", slots[i])
		}
	}
}

func TestNextLink(t *testing.T) {
	p := newPage(t, 256)
	if p.Next() != disk.InvalidPage {
		t.Errorf("fresh page Next = %d, want InvalidPage", p.Next())
	}
	p.SetNext(42)
	if p.Next() != 42 {
		t.Errorf("Next = %d, want 42", p.Next())
	}
}

func TestKindTag(t *testing.T) {
	p := newPage(t, 256)
	if p.Kind() != 1 {
		t.Errorf("Kind = %d, want 1", p.Kind())
	}
	p.SetKind(0xBEEF)
	if p.Kind() != 0xBEEF {
		t.Errorf("Kind = %#x, want 0xBEEF", p.Kind())
	}
}

func TestRecordsIterationOrderAndEarlyStop(t *testing.T) {
	p := newPage(t, 1024)
	for i := 0; i < 5; i++ {
		if _, err := p.Insert([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var seen []byte
	p.Records(func(s SlotID, rec []byte) bool {
		seen = append(seen, rec[0])
		return rec[0] < 2
	})
	if len(seen) != 3 || seen[0] != 0 || seen[1] != 1 || seen[2] != 2 {
		t.Errorf("early-stop iteration saw %v", seen)
	}
}

// Property: any sequence of inserts and deletes leaves the page
// consistent — every live record readable with its original contents.
func TestInsertDeleteProperty(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Wrap(make([]byte, 1024))
		p.Init(0)
		live := map[SlotID][]byte{}
		for _, op := range ops {
			if op%3 != 0 && len(live) > 0 {
				// delete a random live slot
				var keys []SlotID
				for k := range live {
					keys = append(keys, k)
				}
				k := keys[rng.Intn(len(keys))]
				if err := p.Delete(k); err != nil {
					return false
				}
				delete(live, k)
				continue
			}
			rec := make([]byte, int(op%120))
			rng.Read(rec)
			s, err := p.Insert(rec)
			if err != nil {
				if errors.Is(err, ErrPageFull) {
					continue
				}
				return false
			}
			live[s] = rec
		}
		for s, want := range live {
			got, err := p.Get(s)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return p.LiveRecords() == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFreeSpaceMonotonicity(t *testing.T) {
	p := newPage(t, 1024)
	prev := p.FreeSpace()
	for {
		if _, err := p.Insert(make([]byte, 50)); err != nil {
			break
		}
		cur := p.FreeSpace()
		if cur >= prev {
			t.Fatalf("FreeSpace did not shrink: %d -> %d", prev, cur)
		}
		prev = cur
	}
}
