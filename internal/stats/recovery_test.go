package stats

import (
	"strings"
	"testing"

	"revelation/internal/buffer"
	"revelation/internal/disk"
	"revelation/internal/page"
	"revelation/internal/wal"
)

// TestCollectRecovery crashes a tiny workload with a torn final write,
// then checks the report sees the damage before recovery and none
// after.
func TestCollectRecovery(t *testing.T) {
	walDev := disk.New(0)
	dataDev := disk.New(2)
	w, err := wal.Open(walDev)
	if err != nil {
		t.Fatal(err)
	}
	pool := buffer.New(dataDev, 4)
	pool.SetWAL(w)
	f, err := pool.Fix(1)
	if err != nil {
		t.Fatal(err)
	}
	p := page.Wrap(f.Data())
	p.Init(0x5754)
	if _, err := p.Insert([]byte("the only record")); err != nil {
		t.Fatal(err)
	}
	if err := pool.Unfix(f, true); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// Tear the flushed page by hand: keep the first sector, zero the
	// rest, as an interrupted write would.
	buf := make([]byte, dataDev.PageSize())
	if err := dataDev.ReadPage(1, buf); err != nil {
		t.Fatal(err)
	}
	for i := disk.SectorSize; i < len(buf); i++ {
		buf[i] = 0xEE
	}
	if err := dataDev.WritePage(1, buf); err != nil {
		t.Fatal(err)
	}

	r, err := CollectRecovery(walDev, dataDev, pool, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.BadBefore) != 1 || r.BadBefore[0] != 1 {
		t.Errorf("BadBefore = %v, want [1]", r.BadBefore)
	}
	if !r.Clean() {
		t.Errorf("recovery left corrupt pages: %v", r.BadAfter)
	}
	if r.Log.Redone != 1 {
		t.Errorf("Redone = %d, want 1", r.Log.Redone)
	}
	if s := r.String(); !strings.Contains(s, "1 pages corrupt before, 0 after") {
		t.Errorf("String() = %q", s)
	}
}
