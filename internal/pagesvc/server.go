package pagesvc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"revelation/internal/disk"
	"revelation/internal/metrics"
	"revelation/internal/qtrace"
	"revelation/internal/wal"
)

// DataDev and WALDev are the conventional device indices a primary
// serves: clients read and write pages on DataDev, and the WAL writer
// appends to WALDev; Follow streams WALDev's records.
const (
	DataDev = byte(0)
	WALDev  = byte(1)
)

// followPoll is how long Follow waits at the end of the log before
// re-reading the tail.
const followPoll = 2 * time.Millisecond

// ServerConfig tunes a Server beyond its device list.
type ServerConfig struct {
	// AppliedLSN, when set, is reported in Info responses — a replica
	// publishes its replication progress through it so clients can
	// judge staleness before failing over. Nil reports zero on a
	// replica and is meaningless on a primary (clients track their own
	// durable LSN).
	AppliedLSN func() uint64
	// Registry, when set, receives the server's connection and request
	// counters under asm_pagesvc_*.
	Registry *metrics.Registry
	// QTrace, when set, collects server-side spans for requests that
	// carry a query id: each such request becomes a span under a remote
	// trace keyed by the id, so the server's /tracez shows per-query
	// timelines even though queries begin and end on the client. Nil
	// disables server-side attribution.
	QTrace *qtrace.Collector
	// ReadOnly starts the server refusing writes and allocations with a
	// fenced error — the posture of a replica (its device is written by
	// the Follow apply path, never by clients) and of a demoted
	// ex-primary. A Promote with the writable mode lifts it.
	ReadOnly bool
	// OnPromote, when set, is called after a Promote is accepted, with
	// the adopted epoch and whether the server is now writable. A
	// replica daemon uses it to stop its Follow loop: a promoted
	// primary must not keep applying a dead predecessor's log.
	OnPromote func(epoch uint64, writable bool)
}

// Server owns a listener and serves page requests for a fixed set of
// devices. Requests on one connection are pipelined: each goes to an
// idle handler goroutine of the connection, or a new one, and responses
// are interleaved in completion order, matched by request id.
type Server struct {
	devs []disk.Device
	cfg  ServerConfig

	// epoch and readOnly are the fencing state — the epoch starts at 0,
	// which fences nothing, and only a Promote raises it; promoteMu
	// serializes Promote decisions so racing promotions see a consistent
	// epoch-compare-and-adopt (exactly one winner per epoch value).
	epoch     atomic.Uint64
	readOnly  atomic.Bool
	promoteMu sync.Mutex

	ln     net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]*serverConn
	closed bool
	wg     sync.WaitGroup

	accepted  metrics.Counter // connections accepted
	requests  metrics.Counter
	errs      metrics.Counter
	fenced    metrics.Counter // requests rejected by epoch fencing
	followers metrics.Gauge   // Follow streams currently live
}

// NewServer builds a server for devs (addressed by index on the wire).
// A primary passes [data, wal]; a replica passes just [data].
func NewServer(devs []disk.Device, cfg ServerConfig) *Server {
	s := &Server{devs: devs, cfg: cfg, conns: map[net.Conn]*serverConn{}}
	s.readOnly.Store(cfg.ReadOnly)
	if r := cfg.Registry; r != nil {
		r.Attach("asm_pagesvc_conns_total", "Page-service connections accepted.", &s.accepted)
		r.Attach("asm_pagesvc_requests_total", "Page-service requests handled.", &s.requests)
		r.Attach("asm_pagesvc_request_errors_total", "Page-service requests that failed.", &s.errs)
		r.Attach("asm_pagesvc_fenced_total", "Requests rejected by epoch fencing.", &s.fenced)
		r.Attach("asm_pagesvc_followers", "Live WAL follow streams.", &s.followers)
	}
	return s
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts accepting in the
// background. It returns the bound address, so port 0 works in tests.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", errors.New("pagesvc: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// Epoch returns the server's current fencing epoch.
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// ReadOnly reports whether the server currently refuses writes.
func (s *Server) ReadOnly() bool { return s.readOnly.Load() }

// Close stops the listener, severs every live connection, and waits
// for all handler goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		sc := &serverConn{c: c, jobs: make(chan job), waiting: make(chan struct{}, maxIdleBufs)}
		s.conns[c] = sc
		s.mu.Unlock()
		s.accepted.Inc()
		s.wg.Add(1)
		go s.serveConn(sc)
	}
}

// serverConn is one accepted connection as its request handlers see
// it: frame writes are serialized, and the buffers requests are handled
// in, and the handlers themselves, are kept between requests.
type serverConn struct {
	c net.Conn

	mu   sync.Mutex // serializes frame writes; guards idle and readMax
	idle [][]byte   // buffers between requests
	// readMax is the largest buffer a read has been answered in here.
	// No larger buffer is kept, save one the frame reader's own buffer
	// would hold: a bulk write's is used once.
	readMax int

	// jobs hands a request to a waiting handler; each holds a slot of
	// waiting, so no more than maxIdleBufs wait at once.
	jobs     chan job
	waiting  chan struct{}
	handlers sync.WaitGroup
}

// job is one decoded request and the buffer it was copied into.
type job struct {
	req request
	buf []byte
}

// maxIdleBufs bounds a connection's idle buffers, each a little over
// the largest request and response it has held — a page, or a run of
// them, read: a client's lanes keep one request each in flight. It
// bounds the handlers waiting for a request too.
const maxIdleBufs = 4

// take returns a buffer for one request, empty, with whatever capacity
// its last use left it.
func (sc *serverConn) take() []byte {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	n := len(sc.idle)
	if n == 0 {
		return nil
	}
	buf := sc.idle[n-1]
	sc.idle = sc.idle[:n-1]
	return buf[:0]
}

// send writes one frame in one Write, then keeps buf — the buffer the
// frame was assembled in, done with once the write has returned — for a
// later request, if keepsLocked allows; read says a read was answered in
// it. A nil buf keeps nothing.
func (sc *serverConn) send(frame, buf []byte, read bool) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	_, err := sc.c.Write(frame)
	if read {
		sc.readMax = max(sc.readMax, cap(buf))
	}
	if buf != nil && len(sc.idle) < maxIdleBufs && sc.keepsLocked(cap(buf)) {
		sc.idle = append(sc.idle, buf)
	}
	return err
}

// keeps reports whether a buffer of n bytes is worth keeping between
// requests: one no larger than the frame reader's own buffer, or than
// the largest a read has been answered in on this connection.
func (sc *serverConn) keeps(n int) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.keepsLocked(n)
}

func (sc *serverConn) keepsLocked(n int) bool { return n <= max(frameBufSize, sc.readMax) }

func (s *Server) serveConn(sc *serverConn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, sc.c)
		s.mu.Unlock()
		sc.c.Close()
	}()
	fr := newFrameReader(sc.c)
	defer sc.handlers.Wait()
	defer close(sc.jobs) // the waiting handlers exit
	for {
		payload, err := fr.next()
		if err != nil {
			return // EOF, reset, or garbage: the connection is done.
		}
		// The payload is the reader's until its next call, and the
		// handler outlives that: the request moves to a buffer of its
		// own, where the handler also assembles the response.
		buf := append(sc.take(), payload...)
		if len(payload) > frameBufSize && !sc.keeps(len(payload)) {
			fr.big = nil // grown for a bulk write: not kept either
		}
		req, err := decodeRequest(buf)
		if err != nil {
			// A malformed frame poisons the whole stream (framing state
			// is gone): answer with a classified error — reqID 0, since
			// the real id is unrecoverable — then close the connection.
			s.errs.Inc()
			sc.send(appendResponse(nil, response{status: stErr, body: encodeErr(err)}), buf, false)
			return
		}
		s.requests.Inc()
		if req.op == opFollow {
			// Follow takes over the connection: the stream shares the
			// writer with any in-flight request handlers, but no new
			// requests are read until it ends (it ends only when the
			// connection or server dies).
			s.serveFollow(sc, req, buf)
			return
		}
		select {
		case sc.jobs <- job{req, buf}:
		default: // no handler is waiting
			sc.handlers.Add(1)
			go s.handler(sc, job{req, buf})
		}
	}
}

// handler serves j, then the connection's later requests as they are
// handed to it, until the read loop ends or enough handlers wait already.
func (s *Server) handler(sc *serverConn, j job) {
	defer sc.handlers.Done()
	for ok := true; ok; {
		out := s.handle(j.req, j.buf)
		sc.send(out[len(j.buf):], out, j.req.op == opRead) // a dead conn ends the read loop too
		select {
		case sc.waiting <- struct{}{}:
		default:
			return
		}
		j, ok = <-sc.jobs
		<-sc.waiting
	}
}

// reqSpan opens a server-side span for an attributed request, and a
// context carrying it for the device read underneath. Unattributed
// requests (qid 0) or a nil collector cost nothing.
func (s *Server) reqSpan(req request, name string) (*qtrace.Span, context.Context) {
	if s.cfg.QTrace == nil || req.qid == 0 {
		return nil, nil
	}
	t := s.cfg.QTrace.Remote(req.qid, "remote")
	sp := t.Root().StartChild(qtrace.LayerNet, name)
	return sp, qtrace.With(context.Background(), sp)
}

// fail appends the frame of a classified error response to buf and
// counts the failed request.
func (s *Server) fail(buf []byte, reqID uint64, err error) []byte {
	s.errs.Inc()
	return appendResponse(buf, response{status: stErr, reqID: reqID, body: encodeErr(err)})
}

// handle executes one non-streaming request against its device. buf
// holds the request's bytes (req.body points into it); the response
// frame is appended behind them and the whole returned. A page read, or
// a run of them, goes from the device straight into that frame.
func (s *Server) handle(req request, buf []byte) []byte {
	ok := func(body []byte) []byte {
		return appendResponse(buf, response{status: stOK, reqID: req.reqID, body: body})
	}
	// Epoch fencing, checked before any device work. A request stamped
	// with an older (nonzero) epoch is from a superseded view of the
	// fleet — a router that has not heard about a promotion yet — and
	// is rejected outright; stamping the current epoch is fine, and a
	// zero stamp is unfenced traffic.
	if cur := s.epoch.Load(); req.epoch != 0 && req.epoch < cur {
		s.fenced.Inc()
		return s.fail(buf, req.reqID, fmt.Errorf("pagesvc: request epoch %d superseded by %d: %w", req.epoch, cur, ErrFenced))
	}
	if req.op == opPromote {
		return s.handlePromote(req, buf)
	}
	// A read-only server (replica, or a fenced ex-primary) refuses all
	// mutations: this is what rejects a zombie primary's late writes
	// after the fleet has moved on without it.
	if s.readOnly.Load() && (req.op == opWrite || req.op == opAlloc) {
		s.fenced.Inc()
		return s.fail(buf, req.reqID, fmt.Errorf("pagesvc: read-only at epoch %d: %w", s.epoch.Load(), ErrFenced))
	}
	if int(req.dev) >= len(s.devs) {
		return s.fail(buf, req.reqID, fmt.Errorf("pagesvc: no device %d", req.dev))
	}
	dev := s.devs[req.dev]
	switch req.op {
	case opRead:
		// A run is read page by page, in its order — which is the order
		// the client's elevator chose for this arm — and answered whole or
		// not at all: the client reads the pages of a failed run singly.
		// A page read is a run of exactly one.
		n, ps := len(req.body)/4, dev.PageSize()
		if n == 0 || len(req.body)%4 != 0 || n > (maxFrame-respHdrSize)/ps {
			return s.fail(buf, req.reqID, fmt.Errorf("%w: read of %d bytes of page ids", ErrBadFrame, len(req.body)))
		}
		out := appendResponseHdr(buf, stOK, req.reqID, n*ps)
		body := len(out)
		out = slices.Grow(out, n*ps)[:body+n*ps]
		// Growing out may have moved the request; req.body still reads the
		// old bytes, which nothing overwrites.
		sp, ctx := s.reqSpan(req, "read")
		var err error
		for i := 0; i < n && err == nil; i++ {
			p := disk.PageID(binary.LittleEndian.Uint32(req.body[4*i:]))
			err = disk.ReadPageCtx(ctx, dev, p, out[body+i*ps:body+(i+1)*ps])
		}
		sp.End()
		if err != nil {
			return s.fail(buf, req.reqID, err)
		}
		return out
	case opWrite:
		// A run is written page by page, in its order, until a page
		// fails. A page write is a run of exactly one, and its failure is
		// its answer. A longer run that stops short answers how many pages
		// it wrote; the client writes the page that failed on its own, so
		// that page's error reaches the caller (and a router's retry) as
		// a page write's does.
		ps := dev.PageSize()
		n := len(req.body) / (4 + ps)
		if n == 0 || len(req.body)%(4+ps) != 0 {
			return s.fail(buf, req.reqID, fmt.Errorf("%w: write of %d bytes", ErrBadFrame, len(req.body)))
		}
		imgs := req.body[4*n:]
		for i := 0; i < n; i++ {
			p := disk.PageID(binary.LittleEndian.Uint32(req.body[4*i:]))
			if err := dev.WritePage(p, imgs[i*ps:(i+1)*ps]); err != nil {
				if n == 1 {
					return s.fail(buf, req.reqID, err)
				}
				s.errs.Inc()
				var body [4]byte
				binary.LittleEndian.PutUint32(body[:], uint32(i))
				return ok(body[:])
			}
		}
		return ok(nil)
	case opAlloc:
		if len(req.body) != 4 {
			return s.fail(buf, req.reqID, ErrBadFrame)
		}
		n := int(binary.LittleEndian.Uint32(req.body))
		first, err := dev.Allocate(n)
		if err != nil {
			return s.fail(buf, req.reqID, err)
		}
		var body [4]byte
		binary.LittleEndian.PutUint32(body[:], uint32(first))
		return ok(body[:])
	case opInfo:
		var applied uint64
		if s.cfg.AppliedLSN != nil {
			applied = s.cfg.AppliedLSN()
		}
		var body [28]byte
		binary.LittleEndian.PutUint64(body[0:], uint64(dev.NumPages()))
		binary.LittleEndian.PutUint32(body[8:], uint32(dev.PageSize()))
		binary.LittleEndian.PutUint64(body[12:], applied)
		binary.LittleEndian.PutUint64(body[20:], s.epoch.Load())
		return ok(body[:])
	case opPing:
		return ok(nil)
	default:
		return s.fail(buf, req.reqID, fmt.Errorf("pagesvc: unknown op %d", req.op))
	}
}

// handlePromote runs the epoch compare-and-adopt under promoteMu so
// racing promotions are decided in one place: the first promotion to
// present a given epoch wins it, every later arrival of the same (or a
// lower) epoch is fenced — a double promotion has exactly one winner.
// A promotion is also refused (transiently — the controller retries as
// catch-up progresses) while the server's applied LSN is behind the
// caller's floor: promoting a replica that has not absorbed every
// durable write would lose data the client was promised.
func (s *Server) handlePromote(req request, buf []byte) []byte {
	epoch, minLSN, writable, err := decodePromote(req.body)
	if err != nil {
		return s.fail(buf, req.reqID, err)
	}
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if cur := s.epoch.Load(); epoch <= cur {
		s.fenced.Inc()
		return s.fail(buf, req.reqID, fmt.Errorf("pagesvc: promote epoch %d not above current %d: %w", epoch, cur, ErrFenced))
	}
	if minLSN > 0 {
		var applied uint64
		if s.cfg.AppliedLSN != nil {
			applied = s.cfg.AppliedLSN()
		}
		if applied < minLSN {
			return s.fail(buf, req.reqID, fmt.Errorf("pagesvc: promote: applied LSN %d behind floor %d: %w",
				applied, minLSN, disk.ErrTransient))
		}
	}
	s.epoch.Store(epoch)
	s.readOnly.Store(!writable)
	if s.cfg.OnPromote != nil {
		s.cfg.OnPromote(epoch, writable)
	}
	var body [8]byte
	binary.LittleEndian.PutUint64(body[:], epoch)
	return appendResponse(buf, response{status: stOK, reqID: req.reqID, body: body[:]})
}

// serveFollow streams WAL records from the requested device, starting
// after fromLSN, polling the tail as the log grows: a page image as an
// stStream frame, a delta as an stDelta frame. It returns when
// the connection breaks or the server closes. Both a clean end and a
// torn tail mean "nothing more yet" to a live follower — a torn tail
// on a growing log is usually an append caught mid-flight, and if it
// is real damage, recovery on the primary will repair it before the
// log grows past it.
func (s *Server) serveFollow(sc *serverConn, req request, buf []byte) {
	// Every frame of the stream is assembled in buf, behind the request,
	// and buf keeps what room a frame grew it to.
	fail := func(err error) {
		out := appendResponse(buf, response{status: stErr, reqID: req.reqID, body: encodeErr(err)})
		sc.send(out[len(buf):], nil, false)
	}
	send := func(out []byte) error {
		buf = out[:len(buf)]
		return sc.send(out[len(buf):], nil, false)
	}
	if int(req.dev) >= len(s.devs) {
		fail(fmt.Errorf("pagesvc: no device %d", req.dev))
		return
	}
	if len(req.body) != 8 {
		fail(ErrBadFrame)
		return
	}
	fromLSN := binary.LittleEndian.Uint64(req.body)
	s.followers.Add(1)
	defer s.followers.Add(-1)
	r := wal.NewReader(s.devs[req.dev])
	for {
		rec, err := r.Next()
		if err != nil {
			if !errors.Is(err, wal.ErrEndOfLog) && !errors.Is(err, wal.ErrTornTail) {
				fail(err)
				return
			}
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return
			}
			time.Sleep(followPoll)
			continue
		}
		if rec.LSN <= fromLSN {
			continue
		}
		var out []byte
		switch rec.Kind {
		case wal.RecOwnership, wal.RecBase:
			// Cutover and base records carry no page image; ship a
			// watermark-only frame so the follower's applied LSN still
			// advances past them (a stalled watermark would wedge the
			// staleness guard).
			out = appendStreamRecord(buf, req.reqID, rec.LSN, 0, nil)
		case wal.RecDelta:
			out = appendDeltaRecord(buf, req.reqID, rec)
		default:
			out = appendStreamRecord(buf, req.reqID, rec.LSN, rec.Page, rec.Img)
		}
		if err := send(out); err != nil {
			return
		}
	}
}

var _ io.Closer = (*Server)(nil)
