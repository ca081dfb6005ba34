package disk

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// Server is the "server-per-device" architecture sketched in Section 7
// of the paper: when multiple assembly operators (or parallel clones of
// one operator) issue requests against the same device, each assumes
// exclusive control and elevator scheduling degrades. A Server owns the
// device's request queue, batches outstanding requests from all
// clients, and services them in SCAN order, restoring the exclusive-
// control assumption. No production path runs one; it is the reference
// model for a shared arm's request queue, and the tests below pin it.
type Server struct {
	dev Device

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*request
	closed  bool
	stopped chan struct{}

	// batchWait makes the drain loop linger after the first request of
	// a batch arrives, accumulating outstanding requests from other
	// clients before the SCAN sweep: anticipatory batching. Zero drains
	// immediately. Set it before starting run.
	batchWait time.Duration
}

type request struct {
	page PageID
	buf  []byte
	done chan error
}

// newServer builds a request server for dev; go s.run() starts the
// drain loop that services the queue in elevator order. Callers submit
// reads with Read.
func newServer(dev Device) *Server {
	s := &Server{dev: dev, stopped: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Read reads page p through the server, blocking until serviced.
// The buffer contract matches Device.ReadPage. A Read that races with
// Close gets a definitive outcome: either it is serviced (the close
// drains the queue first) or it fails with ErrClosed; requests are
// never silently dropped.
func (s *Server) Read(p PageID, buf []byte) error {
	req := &request{page: p, buf: buf, done: make(chan error, 1)}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.queue = append(s.queue, req)
	s.cond.Signal()
	s.mu.Unlock()
	return <-req.done
}

func (s *Server) run() {
	defer close(s.stopped)
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed && len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		wait := s.batchWait
		s.mu.Unlock()
		if wait > 0 {
			// Anticipatory batching: let concurrent clients queue up
			// so the sweep has something to order.
			time.Sleep(wait)
		}
		// Take the whole batch and service it in SCAN order starting
		// from the current head position.
		s.mu.Lock()
		batch := s.queue
		s.queue = nil
		s.mu.Unlock()

		head := s.dev.Head()
		sort.Slice(batch, func(i, j int) bool { return batch[i].page < batch[j].page })
		// Split at the head: service pages >= head ascending, then the
		// rest descending (one SCAN sweep and return).
		split := sort.Search(len(batch), func(i int) bool { return batch[i].page >= head })
		for i := split; i < len(batch); i++ {
			batch[i].done <- s.dev.ReadPage(batch[i].page, batch[i].buf)
		}
		for i := split - 1; i >= 0; i-- {
			batch[i].done <- s.dev.ReadPage(batch[i].page, batch[i].buf)
		}
	}
}

// Close shuts the server down after draining pending requests.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.stopped
		return
	}
	s.closed = true
	s.cond.Signal()
	s.mu.Unlock()
	<-s.stopped
}

// TestServerReadCloseRace is the regression test for the Read/Close
// interaction: a Read racing with Close must either be serviced or
// fail with ErrClosed — never hang and never return a third outcome.
// Run under -race it also checks the queue handoff for data races.
func TestServerReadCloseRace(t *testing.T) {
	for iter := 0; iter < 40; iter++ {
		d := New(128)
		s := newServer(d)
		go s.run()
		var wg sync.WaitGroup
		unexpected := make(chan error, 8*16)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				buf := make([]byte, DefaultPageSize)
				for k := 0; k < 16; k++ {
					err := s.Read(PageID((g*16+k)%128), buf)
					if err != nil && !errors.Is(err, ErrClosed) {
						unexpected <- err
					}
				}
			}(g)
		}
		// Close concurrently with the in-flight readers.
		s.Close()
		wg.Wait()
		close(unexpected)
		for err := range unexpected {
			t.Fatalf("iter %d: read returned non-definitive error: %v", iter, err)
		}
		// After Close returns, every further Read is definitively closed.
		if err := s.Read(0, make([]byte, DefaultPageSize)); !errors.Is(err, ErrClosed) {
			t.Fatalf("iter %d: read after close = %v, want ErrClosed", iter, err)
		}
		// Double close must be idempotent.
		s.Close()
	}
}

func TestServerNoRetryOnPermanent(t *testing.T) {
	d := New(64)
	var calls int
	var mu sync.Mutex
	d.SetFault(func(p PageID, write bool) error {
		mu.Lock()
		calls++
		mu.Unlock()
		return fmt.Errorf("%w: page %d", ErrPermanent, p)
	})
	s := newServer(d)
	go s.run()
	defer s.Close()
	if err := s.Read(3, make([]byte, DefaultPageSize)); !errors.Is(err, ErrPermanent) {
		t.Fatalf("err = %v, want ErrPermanent", err)
	}
	if calls != 1 {
		t.Errorf("permanent error was retried: %d device attempts", calls)
	}
}

func TestServerElevatorOrder(t *testing.T) {
	// Build the server without its drain goroutine, enqueue a full
	// batch, then start draining: the batch must be serviced in SCAN
	// order, so total head movement equals one ascending sweep.
	d := New(1000)
	s := newServer(d)
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
	s := newServer(d)
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
	s := newServer(d)
	s.batchWait = 2 * time.Millisecond
	go s.run()
	defer s.Close()
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
	s := newServer(d)
	go s.run()
	s.Close()
	if err := s.Read(1, make([]byte, DefaultPageSize)); !errors.Is(err, ErrClosed) {
		t.Errorf("read after close err = %v, want ErrClosed", err)
	}
}

func TestServerManyClients(t *testing.T) {
	d := New(4096)
	s := newServer(d)
	go s.run()
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

// TestServerRestoresScanAcrossClients pins Section 7's claim with a
// fixed interleaving: 32 clients each read (c*1327 + i*613) % N for 50
// rounds, one request outstanding per client. Read directly in
// round-robin order, each request pulls the head across the device;
// through the server, each round's 32 requests are one SCAN batch.
func TestServerRestoresScanAcrossClients(t *testing.T) {
	const clients, rounds, pages = 32, 50, 4096
	page := func(c, i int) PageID { return PageID((c*1327 + i*613) % pages) }

	direct := New(pages)
	buf := make([]byte, DefaultPageSize)
	for i := 0; i < rounds; i++ {
		for c := 0; c < clients; c++ {
			if err := direct.ReadPage(page(c, i), buf); err != nil {
				t.Fatal(err)
			}
		}
	}

	served := New(pages)
	s := newServer(served)
	go s.run()
	defer s.Close()
	reqs := make([]*request, clients)
	for i := 0; i < rounds; i++ {
		s.mu.Lock()
		for c := range reqs {
			reqs[c] = &request{page: page(c, i), buf: make([]byte, DefaultPageSize), done: make(chan error, 1)}
		}
		s.queue = append(s.queue, reqs...)
		s.cond.Signal()
		s.mu.Unlock()
		for _, r := range reqs {
			if err := <-r.done; err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, c := range []struct {
		name      string
		st        Stats
		seekReads int64
	}{
		{"direct", direct.Stats(), 2818218}, // 1761.4 pages a read
		{"served", served.Stats(), 222869},  // 139.3 pages a read
	} {
		if c.st.Reads != clients*rounds || c.st.SeekReads != c.seekReads {
			t.Errorf("%s: %d reads, %d pages of seek (%.1f a read), want %d reads, %d pages",
				c.name, c.st.Reads, c.st.SeekReads, c.st.AvgSeekPerRead(), clients*rounds, c.seekReads)
		}
	}
}
