package disk

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"revelation/internal/trace"
)

func TestSimReadWriteRoundTrip(t *testing.T) {
	d := New(4)
	in := make([]byte, DefaultPageSize)
	for i := range in {
		in[i] = byte(i % 251)
	}
	if err := d.WritePage(2, in); err != nil {
		t.Fatalf("WritePage: %v", err)
	}
	out := make([]byte, DefaultPageSize)
	if err := d.ReadPage(2, out); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("byte %d: got %d want %d", i, out[i], in[i])
		}
	}
}

func TestSimSeekAccounting(t *testing.T) {
	d := New(100)
	buf := make([]byte, DefaultPageSize)
	reads := []PageID{10, 20, 5, 5, 90}
	wantSeek := int64(10 + 10 + 15 + 0 + 85)
	for _, p := range reads {
		if err := d.ReadPage(p, buf); err != nil {
			t.Fatalf("ReadPage(%d): %v", p, err)
		}
	}
	st := d.Stats()
	if st.Reads != int64(len(reads)) {
		t.Errorf("Reads = %d, want %d", st.Reads, len(reads))
	}
	if st.SeekReads != wantSeek {
		t.Errorf("SeekReads = %d, want %d", st.SeekReads, wantSeek)
	}
	if st.MaxSeek != 85 {
		t.Errorf("MaxSeek = %d, want 85", st.MaxSeek)
	}
	if got, want := st.AvgSeekPerRead(), float64(wantSeek)/float64(len(reads)); got != want {
		t.Errorf("AvgSeekPerRead = %v, want %v", got, want)
	}
	if d.Head() != 90 {
		t.Errorf("Head = %d, want 90", d.Head())
	}
}

func TestSimWritesMoveHeadButNotReadSeek(t *testing.T) {
	d := New(100)
	buf := make([]byte, DefaultPageSize)
	if err := d.WritePage(50, buf); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.SeekReads != 0 {
		t.Errorf("SeekReads after write = %d, want 0", st.SeekReads)
	}
	if st.SeekTotal != 50 {
		t.Errorf("SeekTotal after write = %d, want 50", st.SeekTotal)
	}
	if err := d.ReadPage(60, buf); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().SeekReads; got != 10 {
		t.Errorf("SeekReads = %d, want 10 (head moved by write)", got)
	}
}

func TestSimAllocate(t *testing.T) {
	d := New(2)
	first, err := d.Allocate(3)
	if err != nil {
		t.Fatal(err)
	}
	if first != 2 {
		t.Errorf("Allocate returned %d, want 2", first)
	}
	if d.NumPages() != 5 {
		t.Errorf("NumPages = %d, want 5", d.NumPages())
	}
	buf := make([]byte, DefaultPageSize)
	if err := d.ReadPage(4, buf); err != nil {
		t.Errorf("read allocated page: %v", err)
	}
}

func TestSimOutOfRange(t *testing.T) {
	d := New(1)
	buf := make([]byte, DefaultPageSize)
	if err := d.ReadPage(1, buf); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("ReadPage(1) err = %v, want ErrOutOfRange", err)
	}
	if err := d.WritePage(9, buf); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("WritePage(9) err = %v, want ErrOutOfRange", err)
	}
}

func TestSimBadLength(t *testing.T) {
	d := New(1)
	if err := d.ReadPage(0, make([]byte, 10)); !errors.Is(err, ErrBadLength) {
		t.Errorf("short buffer err = %v, want ErrBadLength", err)
	}
}

func TestSimClosed(t *testing.T) {
	d := New(1)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, DefaultPageSize)
	if err := d.ReadPage(0, buf); !errors.Is(err, ErrClosed) {
		t.Errorf("read after close err = %v, want ErrClosed", err)
	}
	if _, err := d.Allocate(1); !errors.Is(err, ErrClosed) {
		t.Errorf("allocate after close err = %v, want ErrClosed", err)
	}
}

func TestSimFaultInjection(t *testing.T) {
	d := New(4)
	boom := errors.New("boom")
	d.SetFault(func(p PageID, write bool) error {
		if p == 2 && !write {
			return boom
		}
		return nil
	})
	buf := make([]byte, DefaultPageSize)
	if err := d.ReadPage(1, buf); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if err := d.ReadPage(2, buf); !errors.Is(err, boom) {
		t.Errorf("fault not injected: %v", err)
	}
	// A failed access must not move the head or count a read.
	if d.Head() != 1 {
		t.Errorf("head moved on failed read: %d", d.Head())
	}
	if d.Stats().Reads != 1 {
		t.Errorf("failed read counted: %d", d.Stats().Reads)
	}
	d.SetFault(nil)
	if err := d.ReadPage(2, buf); err != nil {
		t.Errorf("fault not cleared: %v", err)
	}
}

func TestSimResetStats(t *testing.T) {
	d := New(10)
	buf := make([]byte, DefaultPageSize)
	if err := d.ReadPage(7, buf); err != nil {
		t.Fatal(err)
	}
	d.ResetStats()
	st := d.Stats()
	if st.Reads != 0 || st.SeekTotal != 0 {
		t.Errorf("stats not reset: %+v", st)
	}
	if d.Head() != 7 {
		t.Errorf("ResetStats moved head: %d", d.Head())
	}
}

func TestSimConcurrentAccess(t *testing.T) {
	d := New(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, DefaultPageSize)
			for i := 0; i < 200; i++ {
				p := PageID(rng.Intn(64))
				if rng.Intn(2) == 0 {
					if err := d.ReadPage(p, buf); err != nil {
						t.Errorf("read: %v", err)
						return
					}
				} else {
					if err := d.WritePage(p, buf); err != nil {
						t.Errorf("write: %v", err)
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	st := d.Stats()
	if st.Reads+st.Writes != 1600 {
		t.Errorf("accesses = %d, want 1600", st.Reads+st.Writes)
	}
}

// Property: seek distance accounted for a sequence of reads equals the
// sum of absolute head movements, for any sequence.
func TestSeekDistanceProperty(t *testing.T) {
	f := func(seq []uint8) bool {
		d := New(256)
		buf := make([]byte, DefaultPageSize)
		var want int64
		head := int64(0)
		for _, b := range seq {
			p := int64(b)
			if err := d.ReadPage(PageID(p), buf); err != nil {
				return false
			}
			dlt := p - head
			if dlt < 0 {
				dlt = -dlt
			}
			want += dlt
			head = p
		}
		return d.Stats().SeekReads == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFileDeviceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.db")
	d, err := OpenFile(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Allocate(4); err != nil {
		t.Fatal(err)
	}
	in := make([]byte, 512)
	copy(in, []byte("persisted page"))
	if err := d.WritePage(3, in); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and verify persistence.
	d2, err := OpenFile(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.NumPages() != 4 {
		t.Fatalf("NumPages after reopen = %d, want 4", d2.NumPages())
	}
	out := make([]byte, 512)
	if err := d2.ReadPage(3, out); err != nil {
		t.Fatal(err)
	}
	if string(out[:14]) != "persisted page" {
		t.Errorf("page contents lost: %q", out[:14])
	}
	if d2.Stats().Reads != 1 {
		t.Errorf("Reads = %d, want 1", d2.Stats().Reads)
	}
}

func TestFileDeviceTracerReplayAgrees(t *testing.T) {
	path := filepath.Join(t.TempDir(), "traced.db")
	d, err := OpenFile(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Allocate(64); err != nil {
		t.Fatal(err)
	}
	col := trace.NewCollector()
	AttachTracer(d, trace.New(col))
	buf := make([]byte, 512)
	for _, p := range []PageID{5, 60, 12, 12, 33} {
		if err := d.ReadPage(p, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.WritePage(7, buf); err != nil {
		t.Fatal(err)
	}
	AttachTracer(d, nil)
	if err := d.ReadPage(1, buf); err != nil { // after detach: no event
		t.Fatal(err)
	}

	r := trace.ReplayEvents(col.Events())
	st := d.Stats()
	if r.Reads != st.Reads-1 || r.Writes != st.Writes {
		t.Errorf("replay reads/writes %d/%d, want %d/%d", r.Reads, r.Writes, st.Reads-1, st.Writes)
	}
	// The detached read moved the head 7→1 (6 pages) without an event,
	// so the replayed seek totals equal the device's minus that seek.
	if want := st.SeekTotal - 6; r.SeekTotal != want {
		t.Errorf("replay SeekTotal = %d, want %d", r.SeekTotal, want)
	}
	if want := st.SeekReads - 6; r.SeekReads != want {
		t.Errorf("replay SeekReads = %d, want %d", r.SeekReads, want)
	}
}

func TestFileDeviceBadLengthFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.db")
	if err := os.WriteFile(path, make([]byte, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path, 512); err == nil {
		t.Error("OpenFile accepted a non-page-multiple file")
	}
}

func TestFileDeviceSeekAccounting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seek.db")
	d, err := OpenFile(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Allocate(50); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	if err := d.ReadPage(40, buf); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadPage(10, buf); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().SeekReads; got != 70 {
		t.Errorf("SeekReads = %d, want 70", got)
	}
}

func TestServerElevatorOrder(t *testing.T) {
	// Build the server without its drain goroutine, enqueue a full
	// batch, then start draining: the batch must be serviced in SCAN
	// order, so total head movement equals one ascending sweep.
	d := New(1000)
	s := &Server{dev: d, stopped: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	pages := []PageID{500, 100, 900, 300, 700}
	var reqs []*request
	for _, p := range pages {
		r := &request{page: p, buf: make([]byte, DefaultPageSize), done: make(chan error, 1)}
		reqs = append(reqs, r)
		s.queue = append(s.queue, r)
	}
	go s.run()
	for _, r := range reqs {
		if err := <-r.done; err != nil {
			t.Fatalf("server read %d: %v", r.page, err)
		}
	}
	s.Close()
	st := d.Stats()
	if st.Reads != int64(len(pages)) {
		t.Errorf("Reads = %d, want %d", st.Reads, len(pages))
	}
	// Head starts at 0, all requests >= 0: a single ascending sweep
	// to page 900.
	if st.SeekReads != 900 {
		t.Errorf("SeekReads = %d, want 900 (one SCAN sweep)", st.SeekReads)
	}
}

func TestServerSweepSplitsAtHead(t *testing.T) {
	d := New(1000)
	buf := make([]byte, DefaultPageSize)
	if err := d.ReadPage(400, buf); err != nil { // park head at 400
		t.Fatal(err)
	}
	d.ResetStats()
	s := &Server{dev: d, stopped: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	var reqs []*request
	for _, p := range []PageID{600, 200, 500, 300} {
		r := &request{page: p, buf: make([]byte, DefaultPageSize), done: make(chan error, 1)}
		reqs = append(reqs, r)
		s.queue = append(s.queue, r)
	}
	go s.run()
	for _, r := range reqs {
		if err := <-r.done; err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// Up: 400->500->600 (200), then down: 600->300->200 (400). Total 600.
	if got := d.Stats().SeekReads; got != 600 {
		t.Errorf("SeekReads = %d, want 600 (up then down sweep)", got)
	}
}

func TestServerBatchWaitAccumulates(t *testing.T) {
	d := New(1000)
	s := NewServer(d)
	defer s.Close()
	s.SetBatchWait(2 * time.Millisecond)
	var wg sync.WaitGroup
	pages := []PageID{900, 100, 500, 300, 700}
	for _, p := range pages {
		wg.Add(1)
		go func(p PageID) {
			defer wg.Done()
			buf := make([]byte, DefaultPageSize)
			if err := s.Read(p, buf); err != nil {
				t.Errorf("read %d: %v", p, err)
			}
		}(p)
	}
	wg.Wait()
	st := d.Stats()
	if st.Reads != int64(len(pages)) {
		t.Fatalf("Reads = %d", st.Reads)
	}
	// With the batching window all five requests should land in one
	// or two sweeps: well under the ~2400 a random order can cost.
	if st.SeekReads > 1700 {
		t.Errorf("SeekReads = %d, batching did not help", st.SeekReads)
	}
}

func TestServerReadAfterClose(t *testing.T) {
	d := New(10)
	s := NewServer(d)
	s.Close()
	if err := s.Read(1, make([]byte, DefaultPageSize)); !errors.Is(err, ErrClosed) {
		t.Errorf("read after close err = %v, want ErrClosed", err)
	}
}

func TestServerManyClients(t *testing.T) {
	d := New(4096)
	s := NewServer(d)
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, DefaultPageSize)
			for i := 0; i < 100; i++ {
				if err := s.Read(PageID(rng.Intn(4096)), buf); err != nil {
					t.Errorf("read: %v", err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if got := d.Stats().Reads; got != 1600 {
		t.Errorf("Reads = %d, want 1600", got)
	}
}

func TestStatsString(t *testing.T) {
	// Smoke test the zero-read metric guard.
	var s Stats
	if s.AvgSeekPerRead() != 0 {
		t.Errorf("AvgSeekPerRead on zero stats = %v", s.AvgSeekPerRead())
	}
	_ = fmt.Sprintf("%+v", s)
}
