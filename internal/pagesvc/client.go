package pagesvc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"revelation/internal/disk"
	"revelation/internal/metrics"
	"revelation/internal/qtrace"
	"revelation/internal/trace"
)

// ClientConfig tunes a Client.
type ClientConfig struct {
	// Primary is the one address this client talks to. (Which copy of a
	// page answers a read — replicas, staleness, failover — is
	// shard.Router's decision, made over several Clients.)
	Primary string
	// Dev is the wire device index this client addresses (DataDev for
	// pages, WALDev for the log).
	Dev byte
	// Timeout bounds each request round trip; zero means 2s.
	Timeout time.Duration
	// JitterSeed has no effect: the client sends each request once and
	// never backs off. Its only setter is the benchmark's workload
	// (benchmark/workload.go), and it goes when that file drops it.
	JitterSeed int64
	// Label overrides the device label this client's asm_net_* metric
	// series carry; empty means "net<Dev>". A sharded fleet gives each
	// member client its own label so their series do not collide in one
	// registry.
	Label string
	// Registry, when set, receives the client's counters under
	// asm_net_*.
	Registry *metrics.Registry
}

// clientConn is one live connection with response demultiplexing:
// requests are pipelined by id, a reader goroutine routes responses to
// the waiting callers.
type clientConn struct {
	c net.Conn

	wm    sync.Mutex  // serializes frame writes; guards frame, iov and out
	frame []byte      // the request frame being written, but for a write's images
	iov   [][]byte    // frame, then the images: one writev
	out   net.Buffers // what of iov the writev has still to send

	mu      sync.Mutex
	pending map[uint64]*waiter
	idle    []*waiter // between calls, for the next one
	dead    error
}

// waiter is one call's place in the pending table: where the response
// goes and the timer that bounds the wait. A call takes one from the
// connection and gives it back when it is done.
type waiter struct {
	ch    chan response // capacity 1: at most one delivery per registration
	timer *time.Timer
	// dst, when not empty, is the caller's page buffers: an stOK body of
	// exactly their length together is delivered in them, in order (the
	// response then says inPlace and has no body), instead of in a copy.
	// The slice is the waiter's own, kept between calls.
	dst [][]byte
}

// Client is one pipelined connection to one page-service endpoint and
// implements disk.Device for one remote device, so a buffer pool or WAL
// writer stacks on it unchanged. Seek accounting is kept client-side,
// through the same disk.Arm every local device seeks with: the head
// tracks the last page touched, so elevator scheduling and the paper's
// seek-distance metric stay meaningful even though the physical device
// is remote. The client sends each request once and hands any failure
// up: a shard.Router above it is the one layer that retries.
type Client struct {
	cfg ClientConfig

	// epoch is stamped into every request: the fleet controller raises
	// it after a promotion so a server still living in a superseded
	// epoch rejects this client's traffic — and, symmetrically, a
	// superseded client is rejected by current servers.
	epoch atomic.Uint64

	// closed is set once, by Close, before it takes cmu: a connect that
	// holds cmu either sees it or hands Close a connection to sever.
	closed atomic.Bool

	// tr receives the net-layer events (send, recv, timeout,
	// reconnect); SetTracer installs it with the arm's. Every call reads
	// it, so it is atomic rather than under mu.
	tr atomic.Pointer[trace.Tracer]

	cmu    sync.Mutex // guards the (lazily dialed) connection
	conn   *clientConn
	everUp bool // a connection has existed before (reconnect detection)

	mu       sync.Mutex
	reqID    uint64
	numPages int
	pageSize int
	arm      disk.Arm // the local head: seeks, Stats and disk-layer events

	sends      metrics.Counter
	recvs      metrics.Counter
	pages      metrics.Counter // pages read or written by answered requests
	errors_    metrics.Counter
	timeouts   metrics.Counter
	reconnects metrics.Counter
}

// Dial connects to the endpoint, fetches device geometry, and returns a
// ready Client.
func Dial(cfg ClientConfig) (*Client, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	c := &Client{cfg: cfg}
	if r := cfg.Registry; r != nil {
		dev := cfg.Label
		if dev == "" {
			dev = fmt.Sprintf("net%d", cfg.Dev)
		}
		r.Attach("asm_net_sends_total", "Page-service requests sent.", &c.sends, "dev", dev)
		r.Attach("asm_net_recvs_total", "Page-service responses received.", &c.recvs, "dev", dev)
		r.Attach("asm_net_pages_total", "Pages read or written by the requests that were answered.", &c.pages, "dev", dev)
		r.Attach("asm_net_errors_total", "Page-service requests that failed.", &c.errors_, "dev", dev)
		r.Attach("asm_net_timeouts_total", "Page-service requests abandoned on deadline.", &c.timeouts, "dev", dev)
		r.Attach("asm_net_reconnects_total", "Endpoint connections re-established.", &c.reconnects, "dev", dev)
	}
	pages, ps, _, _, err := c.info()
	if err == nil && (ps < 1 || ps > maxFrame-respHdrSize) {
		err = fmt.Errorf("%w: page size %d", ErrBadFrame, ps)
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	c.mu.Lock()
	c.numPages, c.pageSize = pages, ps
	c.mu.Unlock()
	return c, nil
}

// AppliedLSN fetches the endpoint's replication progress from its Info
// reply: the applied LSN for a replica-backed server, 0 for a primary.
// The shard router wires it into its failover staleness guard.
func (c *Client) AppliedLSN() (uint64, error) {
	_, _, lsn, _, err := c.info()
	return lsn, err
}

// SetEpoch sets the fencing epoch stamped into every subsequent
// request. The fleet controller raises it after a promotion; zero
// (the default) is unfenced: no server refuses it for its epoch.
func (c *Client) SetEpoch(epoch uint64) { c.epoch.Store(epoch) }

// Ping round-trips an empty request to the endpoint — the fleet
// controller's liveness probe. A healthy server answers inside the
// client timeout; anything else is an error.
func (c *Client) Ping() error {
	_, err := c.call(request{op: opPing, reqID: c.nextID()}, nil, nil)
	return err
}

// Promote asks the endpoint to adopt a new fencing epoch:
// writable true promotes a replica server to writable primary (its
// applied LSN must have reached minLSN, or the refusal is transient
// and worth retrying as catch-up progresses); writable false fences a
// server read-only at the epoch (the demotion posture for a returned
// zombie). The epoch must exceed the server's current one — racing
// promotions at the same epoch crown exactly one winner, the rest get
// ErrFenced.
func (c *Client) Promote(epoch, minLSN uint64, writable bool) error {
	_, err := c.call(request{op: opPromote, reqID: c.nextID(), body: encodePromote(epoch, minLSN, writable)}, nil, nil)
	if err != nil {
		return err
	}
	if !writable {
		return nil
	}
	// The endpoint just became the source of truth; the extent cached
	// at dial time may predate its base backup (or a restart), and the
	// client-side range check would refuse pages the server now holds.
	pages, ps, _, _, err := c.info()
	if err != nil {
		return nil // promoted; the stale extent heals on the next Allocate
	}
	c.mu.Lock()
	if pages > c.numPages && ps == c.pageSize {
		c.numPages = pages
	}
	c.mu.Unlock()
	return nil
}

// connect returns the live connection, dialing if needed. A closed
// client never dials: a connection made after Close would have no owner
// left to reap it.
func (c *Client) connect() (*clientConn, error) {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if c.closed.Load() {
		return nil, disk.ErrClosed
	}
	if c.conn != nil {
		c.conn.mu.Lock()
		dead := c.conn.dead
		c.conn.mu.Unlock()
		if dead == nil {
			return c.conn, nil
		}
		c.conn = nil
	}
	nc, err := net.DialTimeout("tcp", c.cfg.Primary, c.cfg.Timeout)
	if err != nil {
		return nil, netErr("dial "+c.cfg.Primary, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	cc := &clientConn{c: nc, pending: map[uint64]*waiter{}}
	go cc.readLoop()
	if c.everUp {
		c.reconnects.Inc()
		c.tr.Load().Net(trace.KindReconnect, trace.NoPage, 0, c.cfg.Primary, 0)
	}
	c.everUp = true
	c.conn = cc
	return cc, nil
}

// readLoop routes responses to their callers until the conn dies, then
// fails every waiter.
func (cc *clientConn) readLoop() {
	fr := newFrameReader(cc.c)
	for {
		payload, err := fr.next()
		if err != nil {
			cc.fail(netErr("recv", err))
			return
		}
		resp, err := decodeResponse(payload)
		if err != nil {
			cc.fail(err)
			return
		}
		cc.deliver(resp)
	}
}

// deliver hands resp, whose body is the frame reader's, to the call
// waiting for it; a response nobody waits for any more is dropped. The
// body is copied out under mu and only for a waiter that is still in
// the table: a caller that gave up has taken its page buffers back with
// it, and the pool may hold other pages in them by now.
func (cc *clientConn) deliver(resp response) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	w := cc.pending[resp.reqID]
	if w == nil {
		return
	}
	delete(cc.pending, resp.reqID)
	if resp.status == stOK && len(w.dst) > 0 {
		want := 0
		for _, page := range w.dst {
			want += len(page)
		}
		if len(resp.body) == want {
			for _, page := range w.dst {
				resp.body = resp.body[copy(page, resp.body):]
			}
			resp.inPlace = true
		}
	}
	resp.body = append([]byte(nil), resp.body...)
	w.ch <- resp
}

func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if cc.dead == nil {
		cc.dead = err
	}
	for id, w := range cc.pending {
		delete(cc.pending, id)
		w.ch <- response{status: stErr, reqID: id, body: encodeErr(err)}
	}
	cc.mu.Unlock()
	cc.c.Close()
}

// start registers a waiter for req, whose stOK body belongs in the page
// buffers dst (none: in a copy), and sends the request frame in one
// write — a write's images straight from req.imgs, behind the rest of
// the frame in one writev. Neither dst nor req.imgs is kept.
func (cc *clientConn) start(req request, dst [][]byte, timeout time.Duration) (*waiter, error) {
	cc.mu.Lock()
	if cc.dead != nil {
		err := cc.dead
		cc.mu.Unlock()
		return nil, err
	}
	var w *waiter
	if n := len(cc.idle); n > 0 {
		w, cc.idle = cc.idle[n-1], cc.idle[:n-1]
		w.timer.Reset(timeout)
	} else {
		w = &waiter{ch: make(chan response, 1), timer: time.NewTimer(timeout)}
	}
	w.dst = append(w.dst[:0], dst...)
	cc.pending[req.reqID] = w
	cc.mu.Unlock()
	cc.wm.Lock()
	cc.frame = appendRequest(cc.frame[:0], req)
	var err error
	if len(req.imgs) == 0 {
		_, err = cc.c.Write(cc.frame)
	} else {
		cc.iov = append(append(cc.iov[:0], cc.frame), req.imgs...)
		cc.out = cc.iov
		_, err = cc.out.WriteTo(cc.c)
		clear(cc.iov)
	}
	cc.wm.Unlock()
	if err != nil {
		cc.finish(req.reqID, w)
		cc.fail(netErr("send", err))
		return nil, netErr("send", err)
	}
	return w, nil
}

// finish ends w's call: it leaves the pending table if it is still
// there, after which nothing is delivered to it or to its pages, and
// goes back to the idle waiters with its channel and timer drained.
func (cc *clientConn) finish(id uint64, w *waiter) {
	if !w.timer.Stop() {
		select {
		case <-w.timer.C:
		default:
		}
	}
	cc.mu.Lock()
	if cc.pending[id] == w {
		delete(cc.pending, id)
	}
	select {
	case <-w.ch:
	default:
	}
	clear(w.dst)
	w.dst = w.dst[:0]
	if len(cc.idle) < maxIdleWaiters {
		cc.idle = append(cc.idle, w)
	}
	cc.mu.Unlock()
}

// maxIdleWaiters bounds a connection's idle waiters; a pool's lanes
// keep one call — a page or a run — each in flight, so a few cover it.
const maxIdleWaiters = 4

func (cc *clientConn) close() {
	cc.fail(netErr("conn", fmt.Errorf("closed")))
}

func (c *Client) nextID() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reqID++
	return c.reqID
}

// call performs one request round trip with the client timeout, under
// the reqID its caller drew for it: every attempt, each of a router's
// retries included, has an id of its own. req names the op, its id, the
// pages it reads or writes (which lead its body), the body and a
// write's images; call stamps the device, the epoch and sp's query id.
// sp, when non-nil, attributes the wire activity to a query span. With
// a dst, an stOK body of the length of dst's buffers together arrives
// in them and the returned response says inPlace; any other body is a
// copy the caller owns. Once call has returned — answered, failed or
// timed out — nothing writes to dst.
func (c *Client) call(req request, sp *qtrace.Span, dst [][]byte) (response, error) {
	op, pages, reqID := req.op, req.pages, req.reqID
	addr, page := c.cfg.Primary, trace.NoPage
	if len(pages) > 0 {
		page = int64(pages[0])
	}
	cc, err := c.connect()
	if err != nil {
		c.errors_.Inc()
		return response{}, err
	}
	qid, tr := sp.QID(), c.tr.Load()
	req.dev, req.qid, req.epoch = c.cfg.Dev, qid, c.epoch.Load()
	c.sends.Inc()
	sp.OnNetSend()
	tr.Net(trace.KindSend, page, 0, addr, qid)
	w, err := cc.start(req, dst, c.cfg.Timeout)
	if err != nil {
		c.errors_.Inc()
		return response{}, err
	}
	defer cc.finish(reqID, w)
	select {
	case resp := <-w.ch:
		if resp.status == stErr {
			c.errors_.Inc()
			c.recvs.Inc()
			err := decodeErr(resp.body)
			sp.OnNetRecv()
			tr.NetRecv(page, 0, true, addr, qid)
			return response{}, err
		}
		c.recvs.Inc()
		c.pages.Add(int64(len(pages)))
		sp.OnNetRecv()
		tr.NetRecv(page, int64(len(pages)), false, addr, qid)
		return resp, nil
	case <-w.timer.C:
		c.timeouts.Inc()
		c.errors_.Inc()
		sp.OnNetTimeout()
		tr.Net(trace.KindTimeout, page, 1, addr, qid)
		return response{}, netErr("timeout on "+addr, fmt.Errorf("%s after %v", opName(op), c.cfg.Timeout))
	}
}

func opName(op byte) string {
	switch op {
	case opRead:
		return "read"
	case opWrite:
		return "write"
	case opAlloc:
		return "alloc"
	case opInfo:
		return "info"
	case opPing:
		return "ping"
	case opFollow:
		return "follow"
	case opPromote:
		return "promote"
	default:
		return fmt.Sprintf("op%d", op)
	}
}

// info fetches device geometry, replication progress, and the fencing
// epoch from the endpoint.
func (c *Client) info() (pages, pageSize int, appliedLSN, epoch uint64, err error) {
	resp, err := c.call(request{op: opInfo, reqID: c.nextID()}, nil, nil)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if len(resp.body) != 28 {
		return 0, 0, 0, 0, fmt.Errorf("%w: %d-byte info", ErrBadFrame, len(resp.body))
	}
	return int(binary.LittleEndian.Uint64(resp.body[0:])),
		int(binary.LittleEndian.Uint32(resp.body[8:])),
		binary.LittleEndian.Uint64(resp.body[12:]),
		binary.LittleEndian.Uint64(resp.body[20:]), nil
}

// --- disk.Device ---

// ReadPage reads page p from the endpoint in one request.
func (c *Client) ReadPage(p disk.PageID, buf []byte) error {
	return c.ReadPageCtx(context.Background(), p, buf)
}

// ReadPageCtx implements disk.CtxReader: the read is attributed to the
// query span carried in ctx, and the query id travels in the request
// frame so the server can attribute its side of the work too.
func (c *Client) ReadPageCtx(ctx context.Context, p disk.PageID, buf []byte) error {
	ids, bufs, errs := [1]disk.PageID{p}, [1][]byte{buf}, [1]error{}
	c.readRun(ctx, ids[:], bufs[:], errs[:])
	return errs[0]
}

// ReadPages implements disk.RunReader: the run travels as one request
// and its images come back in one response, delivered straight into
// bufs. A run that is not answered fails as a whole: every page gets
// the error, and nothing is booked. An answered run is booked on the
// local arm page by page, in the run's order. A run too long for one
// frame goes as several.
func (c *Client) ReadPages(ctx context.Context, ids []disk.PageID, bufs [][]byte, errs []error) {
	per := max((maxFrame-respHdrSize)/c.PageSize(), 1)
	for len(ids) > 0 {
		n := min(per, len(ids))
		c.readRun(ctx, ids[:n], bufs[:n], errs[:n])
		ids, bufs, errs = ids[n:], bufs[n:], errs[n:]
	}
}

// readRun reads a run that fits one frame — a page read is a run of
// one page, which begin books — in one request. A run the client
// refuses is read page by page, so that each page gets its own verdict.
func (c *Client) readRun(ctx context.Context, ids []disk.PageID, bufs [][]byte, errs []error) {
	sp := qtrace.From(ctx)
	reqID, err := c.begin(ids, bufs, true, sp)
	if err != nil && len(ids) > 1 {
		for i := range ids {
			c.readRun(ctx, ids[i:i+1], bufs[i:i+1], errs[i:i+1])
		}
		return
	}
	if err == nil {
		var resp response
		resp, err = c.call(request{op: opRead, reqID: reqID, pages: ids}, sp, bufs)
		if err == nil && !resp.inPlace {
			err = fmt.Errorf("%w: %d bytes for a run of %d pages", ErrBadFrame, len(resp.body), len(ids))
		}
	}
	if err == nil && len(ids) > 1 {
		c.mu.Lock()
		for _, p := range ids {
			c.arm.Seek(p, true, sp)
		}
		c.mu.Unlock()
	}
	for i := range errs {
		errs[i] = err
	}
}

// WritePage writes page p through to the endpoint, a run of one page;
// when it is down writes fail transiently until it returns.
func (c *Client) WritePage(p disk.PageID, buf []byte) error {
	ids, bufs, errs := [1]disk.PageID{p}, [1][]byte{buf}, [1]error{}
	c.writeRun(ids[:], bufs[:], errs[:])
	return errs[0]
}

// WritePages implements disk.RunWriter: the run and its images travel as
// one request, the images straight from bufs, and one short response
// comes back. Each page ends as a loop of WritePage would leave it — the
// same device writes, arm bookings and verdicts. A run too long for one
// frame goes as several.
func (c *Client) WritePages(ids []disk.PageID, bufs [][]byte, errs []error) {
	per := max((maxFrame-reqHdrSize)/(c.PageSize()+4), 1)
	for len(ids) > 0 {
		n := min(per, len(ids))
		c.writeRun(ids[:n], bufs[:n], errs[:n])
		ids, bufs, errs = ids[n:], bufs[n:], errs[n:]
	}
}

// writeRun writes a run that fits one frame — a page write is a run of
// one page, which begin books — in one request. A run refused by the client, or by the server for
// a reason neither transient nor permanent, is written page by page, so
// that each page gets its own verdict. Once the call has returned,
// whatever else it returned, the run books every page it sent on the
// local arm, in the run's order, as a loop of page writes books each
// before its call. A run the server stopped short at a failing page
// books the pages it wrote; the failing page is written on its own, for
// its own verdict, and the rest as a run.
func (c *Client) writeRun(ids []disk.PageID, bufs [][]byte, errs []error) {
	reqID, err := c.begin(ids, bufs, false, nil)
	done := len(ids)
	if err == nil {
		var resp response
		resp, err = c.call(request{op: opWrite, reqID: reqID, pages: ids, imgs: bufs}, nil, nil)
		switch {
		case err != nil || len(resp.body) == 0:
		case len(ids) > 1 && len(resp.body) == 4 && int(binary.LittleEndian.Uint32(resp.body)) < len(ids):
			done = int(binary.LittleEndian.Uint32(resp.body))
		default:
			err = fmt.Errorf("%w: %d-byte answer to a write of %d pages", ErrBadFrame, len(resp.body), len(ids))
		}
	}
	if err != nil && len(ids) > 1 && !disk.Retryable(err) && !errors.Is(err, disk.ErrPermanent) {
		for i := range ids {
			c.writeRun(ids[i:i+1], bufs[i:i+1], errs[i:i+1])
		}
		return
	}
	if len(ids) > 1 {
		c.mu.Lock()
		for _, p := range ids[:done] {
			c.arm.Seek(p, false, nil)
		}
		c.mu.Unlock()
	}
	for i := range errs[:done] {
		errs[i] = err
	}
	if done < len(ids) {
		c.writeRun(ids[done:done+1], bufs[done:done+1], errs[done:done+1])
		c.writeRun(ids[done+1:], bufs[done+1:], errs[done+1:])
	}
}

// Allocate extends the remote device. A request outside
// disk.CheckAllocate's bounds (against the size this client knows) is
// refused here: n goes on the wire as a uint32, where a negative one
// would wrap into a growth.
func (c *Client) Allocate(n int) (disk.PageID, error) {
	c.mu.Lock()
	err := disk.CheckAllocate(n, c.numPages)
	c.mu.Unlock()
	if err != nil {
		return disk.InvalidPage, err
	}
	var body [4]byte
	binary.LittleEndian.PutUint32(body[:], uint32(n))
	resp, err := c.call(request{op: opAlloc, reqID: c.nextID(), body: body[:]}, nil, nil)
	if err != nil {
		return disk.InvalidPage, err
	}
	if len(resp.body) != 4 {
		return disk.InvalidPage, fmt.Errorf("%w: %d-byte alloc reply", ErrBadFrame, len(resp.body))
	}
	first := disk.PageID(binary.LittleEndian.Uint32(resp.body))
	c.mu.Lock()
	if int(first)+n > c.numPages {
		c.numPages = int(first) + n
	}
	c.mu.Unlock()
	return first, nil
}

// NumPages reports the device size as of the last Info/Allocate.
func (c *Client) NumPages() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.numPages
}

// PageSize reports the remote page size.
func (c *Client) PageSize() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pageSize
}

// Head reports the locally tracked head position: the last page this
// client touched. Scheduling against it keeps the elevator's seek
// ordering meaningful across the network. It is a load of the head the
// arm published, with no lock.
func (c *Client) Head() disk.PageID { return c.arm.Head() }

// Stats reports client-side access counters with local seek
// accounting.
func (c *Client) Stats() disk.Stats { return c.arm.Stats() }

// ResetStats zeroes the counters.
func (c *Client) ResetStats() { c.arm.ResetStats() }

// ResetHead parks the head at page 0 without accounting a seek.
func (c *Client) ResetHead() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.arm.ResetHead()
}

// RegisterMetrics implements disk.MetricsRegistrar: the client-side arm
// exports the same asm_disk_* series as a local device, beside (and
// under a label independent of) the asm_net_* series of the wire.
func (c *Client) RegisterMetrics(r *metrics.Registry, dev string) {
	c.arm.Register(r, dev, func() int64 { return int64(c.NumPages()) })
}

// Close severs the connection. Every later call returns disk.ErrClosed
// without dialing.
func (c *Client) Close() error {
	c.closed.Store(true)
	c.cmu.Lock()
	if c.conn != nil {
		c.conn.close()
		c.conn = nil
	}
	c.cmu.Unlock()
	return nil
}

// begin opens an access to pages ids through bufs in one critical
// section: it refuses a closed client or a page malformed against the
// cached geometry, books a one-page access on the local arm once — before
// the call, whatever its outcome: the arm models where the elevator sent
// the head — and draws its request id.
func (c *Client) begin(ids []disk.PageID, bufs [][]byte, read bool, sp *qtrace.Span) (reqID uint64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, p := range ids {
		switch {
		case c.closed.Load():
			return 0, disk.ErrClosed
		case len(bufs[i]) != c.pageSize:
			return 0, disk.ErrBadLength
		case int(p) >= c.numPages:
			return 0, fmt.Errorf("%w: page %d of %d", disk.ErrOutOfRange, p, c.numPages)
		}
	}
	if len(ids) == 1 {
		c.arm.Seek(ids[0], read, sp)
	}
	c.reqID++
	return c.reqID, nil
}

// SetTracer implements disk.TracerSetter. Each page access emits a
// disk-layer event from the client-side arm, mirroring the contract of
// the local devices — the event carries the head position before the
// access and the (local) seek distance, and is emitted once per access.
// The same tracer receives the net-layer events: every send and recv,
// every timeout and reconnect. Pass nil to disable both.
func (c *Client) SetTracer(t *trace.Tracer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.arm.SetTracer(t)
	c.tr.Store(t)
}

var _ disk.Device = (*Client)(nil)
var _ disk.RunReader = (*Client)(nil)
var _ disk.RunWriter = (*Client)(nil)
