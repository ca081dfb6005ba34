package disk

import (
	"sort"
	"sync"
	"time"

	"revelation/internal/metrics"
)

// Server is the "server-per-device" architecture sketched in Section 7
// of the paper: when multiple assembly operators (or parallel clones of
// one operator) issue requests against the same device, each assumes
// exclusive control and elevator scheduling degrades. A Server owns the
// device's request queue, batches outstanding requests from all
// clients, and services them in SCAN order, restoring the exclusive-
// control assumption.
type Server struct {
	dev Device

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []*request
	batchWait time.Duration
	closed    bool
	stopped   chan struct{}
}

type request struct {
	page PageID
	buf  []byte
	done chan error
}

// NewServer starts a request server for dev. Callers submit reads with
// Read; a background goroutine drains the queue in elevator order.
func NewServer(dev Device) *Server {
	s := &Server{dev: dev, stopped: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	go s.run()
	return s
}

// SetBatchWait makes the drain loop linger briefly after the first
// request of a batch arrives, accumulating outstanding requests from
// other clients before the SCAN sweep — anticipatory batching. Zero
// (the default) drains immediately.
func (s *Server) SetBatchWait(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batchWait = d
}

// RegisterMetrics exports the server's live queue depth under the
// device label, and forwards to the underlying device.
func (s *Server) RegisterMetrics(r *metrics.Registry, dev string) {
	r.Attach("asm_disk_server_queue_depth",
		"Requests currently queued at the device server.",
		metrics.GaugeFunc(func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return int64(len(s.queue))
		}), "dev", dev)
	RegisterMetrics(s.dev, r, dev)
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
