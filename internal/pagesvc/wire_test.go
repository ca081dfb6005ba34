package pagesvc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"revelation/internal/difftest"
	"revelation/internal/disk"
	"revelation/internal/leakcheck"
	"revelation/internal/wal"
)

// recConn is a connection that records each Write it is handed and
// reads nothing.
type recConn struct {
	net.Conn // nil: any other use panics
	writes   [][]byte
}

func (c *recConn) Write(p []byte) (int, error) {
	c.writes = append(c.writes, append([]byte(nil), p...))
	return len(p), nil
}

func (c *recConn) Close() error { return nil }

// oneWrite demands that c saw exactly one Write since the last call and
// that it carried the frame the reference encoder makes of payload.
func oneWrite(t *testing.T, what string, c *recConn, payload []byte) {
	t.Helper()
	var want bytes.Buffer
	writeFrame(&want, payload)
	if len(c.writes) != 1 {
		t.Errorf("%s: left in %d writes, want 1", what, len(c.writes))
	} else if !bytes.Equal(c.writes[0], want.Bytes()) {
		t.Errorf("%s: frame\n %x\nreference\n %x", what, c.writes[0], want.Bytes())
	}
	c.writes = nil
}

// flat is req as the reference encoder knows a request: the page ids a
// sender names in pages folded into the body they lead, and the images
// it names in imgs into the body they end.
func flat(req request) request {
	var ids []byte
	for _, p := range req.pages {
		ids = binary.LittleEndian.AppendUint32(ids, uint32(p))
	}
	req.pages, req.body = nil, slices.Concat(append(ids, req.body...), slices.Concat(req.imgs...))
	req.imgs = nil
	return req
}

// TestFrameBytes: every frame either side sends — each op, with and
// without a query id and an epoch, the page ids named apart from the body
// or inside it, ok and error responses, Follow records — is byte for byte
// the frame writeFrame and the encode* functions of wire_model_test.go
// make, and reaches the connection in one Write; a write's images follow
// the rest of its frame in the same writev, which a connection that is
// not a socket sees as one Write per buffer.
func TestFrameBytes(t *testing.T) {
	sim := disk.New(4)
	ps := sim.PageSize()
	img := bytes.Repeat([]byte{0xA5}, ps)
	if err := sim.WritePage(2, img); err != nil {
		t.Fatal(err)
	}
	writeBody := append([]byte{3, 0, 0, 0}, img...)
	blank := make([]byte, ps)
	img4, img5 := bytes.Repeat([]byte{0x44}, ps), bytes.Repeat([]byte{0x55}, ps)
	tooMany := make([]disk.PageID, (maxFrame-respHdrSize)/ps+1) // of page 0: one more than a frame holds

	requests := []request{
		{op: opRead, dev: DataDev, reqID: 7, body: []byte{2, 0, 0, 0}},
		{op: opRead, dev: DataDev, reqID: 8, qid: 42, body: []byte{2, 0, 0, 0}},
		{op: opRead, dev: DataDev, reqID: 9, epoch: 3, body: []byte{2, 0, 0, 0}},
		{op: opRead, dev: DataDev, reqID: 10, body: []byte{9, 0, 0, 0}}, // out of range: an error response
		{op: opWrite, dev: DataDev, reqID: 11, qid: 1, epoch: 3, body: writeBody},
		{op: opAlloc, dev: DataDev, reqID: 12, body: []byte{2, 0, 0, 0}},
		{op: opInfo, dev: DataDev, reqID: 13},
		{op: opPing, dev: DataDev, reqID: 1<<64 - 1},
		{op: opPromote, reqID: 14, epoch: 3, body: encodePromote(5, 0, true)},
		{op: opPromote, reqID: 15, epoch: 5, body: encodePromote(5, 0, true)}, // fenced: same epoch twice
		{op: opFollow, dev: WALDev, reqID: 16, body: make([]byte, 8)},         // no such device: an error response
		{op: 99, dev: DataDev, reqID: 17},
		// As the client sends them: the ids in pages, a write's image the body.
		{op: opRead, dev: DataDev, reqID: 18, qid: 42, pages: []disk.PageID{2}},
		{op: opWrite, dev: DataDev, reqID: 19, pages: []disk.PageID{1}, imgs: [][]byte{img}},
		{op: opRead, dev: DataDev, reqID: 20, epoch: 5, pages: []disk.PageID{2, 0, 1, 2}},
		{op: opRead, dev: DataDev, reqID: 22, body: []byte{0, 0, 0, 0, 2, 0, 0, 0}},
		{op: opRead, dev: DataDev, reqID: 23},                                // no page at all
		{op: opRead, dev: DataDev, reqID: 24, body: []byte{1, 0, 0, 0, 2}},   // a ragged list of ids
		{op: opRead, dev: DataDev, reqID: 25, pages: []disk.PageID{2, 9, 1}}, // one page out of range
		{op: opRead, dev: DataDev, reqID: 26, pages: tooMany},                // more than a frame holds
		{op: opRead, dev: 7, reqID: 27, pages: []disk.PageID{1, 2}},          // no such device
		// Write runs: three pages, then a read of them; a page off the end,
		// where the run stops short and says how many pages it wrote; no
		// page at all; a ragged body; two ids and one image.
		{op: opWrite, dev: DataDev, reqID: 28, qid: 42, pages: []disk.PageID{4, 0, 5}, imgs: [][]byte{img4, img, img5}},
		{op: opRead, dev: DataDev, reqID: 29, pages: []disk.PageID{0, 4, 5}},
		{op: opWrite, dev: DataDev, reqID: 30, pages: []disk.PageID{5, 9, 4}, imgs: [][]byte{img, img, img}},
		{op: opWrite, dev: DataDev, reqID: 31},
		{op: opWrite, dev: DataDev, reqID: 32, body: append([]byte{1, 0, 0, 0}, img[1:]...)},
		{op: opWrite, dev: DataDev, reqID: 33, pages: []disk.PageID{1, 2}, imgs: [][]byte{img}},
	}
	// What the server answers, built by hand from the reference encoder.
	ok := func(reqID uint64, body []byte) []byte {
		return encodeResponse(response{status: stOK, reqID: reqID, body: body})
	}
	info := func(pages int, epoch uint64) []byte {
		b := make([]byte, 28)
		b[0], b[8], b[9] = byte(pages), byte(ps), byte(ps>>8)
		b[20] = byte(epoch)
		return b
	}
	answers := [][]byte{
		ok(7, img), ok(8, img), ok(9, img), nil,
		ok(11, nil), ok(12, []byte{4, 0, 0, 0}), ok(13, info(6, 3)), ok(1<<64-1, nil),
		ok(14, []byte{5, 0, 0, 0, 0, 0, 0, 0}), nil, nil, nil,
		ok(18, img), ok(19, nil),
		ok(20, slices.Concat(img, blank, img, img)), ok(22, slices.Concat(blank, img)),
		nil, nil, nil, nil, nil,
		ok(28, nil), ok(29, slices.Concat(img, img4, img5)), ok(30, []byte{1, 0, 0, 0}),
		nil, nil, nil,
	}

	srv := NewServer([]disk.Device{sim}, ServerConfig{})
	promote := request{op: opPromote, body: encodePromote(3, 0, true)}
	if resp, _ := decodeResponse(srv.handle(promote, nil)[4:]); resp.status != stOK {
		t.Fatal("promotion to epoch 3 refused")
	}
	client := &recConn{}
	cc := &clientConn{c: client, pending: map[uint64]*waiter{}}
	server := &recConn{}
	sc := &serverConn{c: server}
	for i, req := range requests {
		what := fmt.Sprintf("request %d (%s)", i, opName(req.op))
		w, err := cc.start(req, nil, time.Minute)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		cc.finish(req.reqID, w)
		if len(req.imgs) > 0 {
			if len(client.writes) != 1+len(req.imgs) {
				t.Errorf("%s: left in %d writes, want the frame's head and %d images", what, len(client.writes), len(req.imgs))
			}
			client.writes = [][]byte{slices.Concat(client.writes...)}
		}
		oneWrite(t, what, client, encodeRequest(flat(req)))

		buf := append(sc.take(), encodeRequest(flat(req))...)
		got, err := decodeRequest(buf)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if req.op == opFollow {
			srv.serveFollow(sc, got, buf)
		} else {
			out := srv.handle(got, buf)
			sc.send(out[len(buf):], out, got.op == opRead)
		}
		want := answers[i]
		if want == nil {
			// An error response: the message is the server's to word.
			if len(server.writes) != 1 {
				t.Fatalf("%s: answered in %d writes, want 1", what, len(server.writes))
			}
			payload, err := readFrame(bytes.NewReader(server.writes[0]))
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			resp, err := decodeResponse(payload)
			if err != nil || resp.status != stErr || resp.reqID != req.reqID {
				t.Fatalf("%s: answer %+v, %v; want an error response", what, resp, err)
			}
			want = encodeResponse(response{status: stErr, reqID: req.reqID, body: resp.body})
		}
		oneWrite(t, what+": response", server, want)
	}

	// A Follow stream: three records of a log, and the connection breaks
	// under the fourth.
	log := disk.New(0)
	lw, err := wal.Open(log)
	if err != nil {
		t.Fatal(err)
	}
	var lsns []uint64
	for p := disk.PageID(0); p < 4; p++ {
		lsn, err := lw.Append(p, img)
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if err := lw.Sync(); err != nil {
		t.Fatal(err)
	}
	lsns = lsns[:3]
	stream := &brokenAfter{n: len(lsns)}
	follow := request{op: opFollow, dev: 1, reqID: 21, body: make([]byte, 8)}
	fsrv := NewServer([]disk.Device{sim, log}, ServerConfig{})
	fsrv.serveFollow(&serverConn{c: stream}, follow, encodeRequest(follow))
	if len(stream.writes) != len(lsns) {
		t.Fatalf("follow stream left in %d writes, want %d", len(stream.writes), len(lsns))
	}
	for i, lsn := range lsns {
		var want bytes.Buffer
		rec, err := readFrame(bytes.NewReader(stream.writes[i]))
		if err != nil {
			t.Fatal(err)
		}
		resp, _ := decodeResponse(rec)
		_, _, shipped, _ := decodeStreamRecord(resp.body)
		writeFrame(&want, encodeStreamRecord(21, lsn, disk.PageID(i), shipped))
		if !bytes.Equal(stream.writes[i], want.Bytes()) || len(shipped) != ps {
			t.Errorf("follow record %d: frame differs from the reference", i)
		}
	}
}

// brokenAfter is a recConn whose Write fails once n frames are out,
// which is how a Follow stream ends.
type brokenAfter struct {
	recConn
	n int
}

func (c *brokenAfter) Write(p []byte) (int, error) {
	if len(c.writes) == c.n {
		return 0, io.ErrClosedPipe
	}
	return c.recConn.Write(p)
}

// TestFrameReaderSplits: whatever way the bytes of a stream of frames
// arrive — split at every boundary, or a byte at a time — the reader
// hands out the payloads readFrame does, including an empty one and
// several larger than its buffer — a run's request and its answer among
// them, a larger one after a smaller, a smaller after a larger — which
// all pass through the one buffer it keeps for them.
func TestFrameReaderSplits(t *testing.T) {
	payloads := [][]byte{
		encodeRequest(request{op: opRead, reqID: 1, body: []byte{1, 0, 0, 0}}),
		{},
		encodeResponse(response{status: stOK, reqID: 1, body: bytes.Repeat([]byte{7}, 1024)}),
		bytes.Repeat([]byte{9}, frameBufSize+17),
		encodeStreamRecord(5, 9, 2, bytes.Repeat([]byte{0xAB}, 32)),
		encodeRequest(request{op: opRead, reqID: 2, qid: 3, body: bytes.Repeat([]byte{1, 0, 0, 0}, 6)}),
		encodeResponse(response{status: stOK, reqID: 2, body: bytes.Repeat([]byte{0xC4}, 6*1024)}),
		encodeResponse(response{status: stOK, reqID: 3, body: bytes.Repeat([]byte{0xC5}, 4*1024)}),
		encodeResponse(response{status: stOK, reqID: 4, body: []byte{1}}),
		encodeResponse(response{status: stOK, reqID: 5, body: bytes.Repeat([]byte{0xC6}, 8*1024)}),
	}
	var stream bytes.Buffer
	for _, p := range payloads {
		writeFrame(&stream, p)
	}
	s := stream.Bytes()
	check := func(what string, r io.Reader) {
		t.Helper()
		fr := newFrameReader(r)
		for i, want := range payloads {
			got, err := fr.next()
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: frame %d: %d bytes, %v; want %d bytes", what, i, len(got), err, len(want))
			}
		}
		if _, err := fr.next(); err != io.EOF {
			t.Fatalf("%s: after the last frame: %v, want io.EOF", what, err)
		}
	}
	for i := 0; i <= len(s); i++ {
		check(fmt.Sprintf("split at %d", i), io.MultiReader(bytes.NewReader(s[:i]), bytes.NewReader(s[i:])))
	}
	check("a byte at a time", iotestOneByte{bytes.NewReader(s)})

	// A frame cut short is an error, never a short payload.
	for i := 1; i < 4+len(payloads[0]); i++ {
		if p, err := newFrameReader(bytes.NewReader(s[:i])).next(); err == nil {
			t.Fatalf("stream cut at %d: got a %d-byte payload", i, len(p))
		}
	}
	// A length beyond maxFrame is refused before anything is allocated.
	if _, err := newFrameReader(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0})).next(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized frame: %v, want ErrBadFrame", err)
	}
}

// iotestOneByte reads one byte per call.
type iotestOneByte struct{ r io.Reader }

func (o iotestOneByte) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	return o.r.Read(p[:1])
}

// wirePair is a client over loopback TCP to an in-process server whose
// device holds pages filled with their own number.
func wirePair(t testing.TB, dev disk.Device, cfg ClientConfig) *Client {
	t.Helper()
	srv := NewServer([]disk.Device{dev}, ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cfg.Primary = addr
	c, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func numberedPages(t testing.TB, n int) *disk.Sim {
	t.Helper()
	sim := disk.New(n)
	buf := make([]byte, sim.PageSize())
	for p := 0; p < n; p++ {
		for j := range buf {
			buf[j] = byte(p)
		}
		if err := sim.WritePage(disk.PageID(p), buf); err != nil {
			t.Fatal(err)
		}
	}
	return sim
}

// wireReadAllocs is what one ReadPageCtx round trip may allocate,
// client and in-process server together: nothing, once the server's
// handlers are kept between requests. Before frames were assembled in
// kept buffers and waiters recycled the figure was 16 (3.9 KB); before
// the handlers were kept, 1.
const wireReadAllocs = 0

// TestWireReadAllocs pins the allocations of one page read over the
// wire, both ends counted.
func TestWireReadAllocs(t *testing.T) {
	if difftest.Race {
		t.Skip("the race detector allocates on its own account")
	}
	c := wirePair(t, numberedPages(t, 16), ClientConfig{})
	buf := make([]byte, c.PageSize())
	ctx := context.Background()
	p := disk.PageID(0)
	allocs := testing.AllocsPerRun(500, func() {
		if err := c.ReadPageCtx(ctx, p, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(p) || buf[len(buf)-1] != byte(p) {
			t.Fatalf("page %d arrived as %d…%d", p, buf[0], buf[len(buf)-1])
		}
		p = (p + 1) % 16
	})
	if allocs > wireReadAllocs {
		t.Errorf("one page read over the wire allocates %.1f times, want at most %d", allocs, wireReadAllocs)
	}
}

// TestWireReadRunAllocs is TestWireReadAllocs for a run: four pages in
// one frame each way allocate what one page does, and nothing per page;
// neither end makes a buffer for a frame that outgrows its reader's.
func TestWireReadRunAllocs(t *testing.T) {
	if difftest.Race {
		t.Skip("the race detector allocates on its own account")
	}
	c := wirePair(t, numberedPages(t, 16), ClientConfig{})
	ids := make([]disk.PageID, 4)
	bufs := make([][]byte, len(ids))
	for i := range bufs {
		bufs[i] = make([]byte, c.PageSize())
	}
	errs := make([]error, len(ids))
	ctx := context.Background()
	p := disk.PageID(0)
	before := c.Stats().Reads
	const runs = 500
	allocs := testing.AllocsPerRun(runs, func() {
		for i := range ids {
			ids[i] = (p + disk.PageID(3*i)) % 16
		}
		c.ReadPages(ctx, ids, bufs, errs)
		for i, id := range ids {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if buf := bufs[i]; buf[0] != byte(id) || buf[len(buf)-1] != byte(id) {
				t.Fatalf("page %d arrived as %d…%d", id, buf[0], buf[len(buf)-1])
			}
		}
		p++
	})
	if allocs > wireReadAllocs {
		t.Errorf("a run of %d pages over the wire allocates %.1f times, want at most %d", len(ids), allocs, wireReadAllocs)
	}
	// AllocsPerRun makes one warm-up call. Each run was one frame out and
	// one back, and every page of it moved the arm once.
	if got := c.Stats().Reads - before; got != (runs+1)*int64(len(ids)) {
		t.Errorf("%d runs of %d pages booked %d reads on the arm", runs+1, len(ids), got)
	}
	if sends, pages := c.sends.Value(), c.pages.Value(); sends != runs+2 || pages != (runs+1)*int64(len(ids)) { // +1 for Dial's info
		t.Errorf("%d sends carrying %d pages, want %d carrying %d", sends, pages, runs+2, (runs+1)*len(ids))
	}
}

// TestKeptHandlersStorm: a connection's kept handlers still serve its
// pipelined requests concurrently. While a stall holds one read in the
// server, a ping and a storm of other reads on the same connection are
// all answered; no more than maxIdleBufs handlers wait at any time;
// and none is left once the server has closed.
func TestKeptHandlersStorm(t *testing.T) {
	goroutines := leakcheck.Snapshot()
	const pages, stall = 64, time.Second
	fd := disk.NewFaulty(numberedPages(t, pages), disk.FaultConfig{})
	fd.SetConfig(disk.FaultConfig{Seed: 7, StallRate: 0.1, Stall: stall})
	held, fast := disk.PageID(pages), []disk.PageID{}
	for p := disk.PageID(0); p < pages; p++ {
		if !fd.Stalled(p) {
			fast = append(fast, p)
		} else if held == pages {
			held = p
		}
	}
	if held == pages {
		t.Fatal("no page of the device stalls")
	}
	srv := NewServer([]disk.Device{fd}, ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(ClientConfig{Primary: addr, Timeout: 10 * stall})
	if err != nil {
		t.Fatal(err)
	}
	heldDone := make(chan error, 1)
	go func() { heldDone <- c.ReadPage(held, make([]byte, c.PageSize())) }()
	for fd.FaultStats().Stalls == 0 {
		time.Sleep(time.Millisecond)
	}

	// Sample the waiting handlers of the one connection while the storm runs.
	idle := func() (n int) {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for _, sc := range srv.conns {
			n = max(n, len(sc.waiting))
		}
		return n
	}
	stop, most := make(chan struct{}), make(chan int)
	go func() {
		m := 0
		for {
			select {
			case <-stop:
				most <- m
				return
			default:
				m = max(m, idle())
				runtime.Gosched()
			}
		}
	}()
	const callers, reads = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, c.PageSize())
			for i := 0; i < reads; i++ {
				p := fast[(g*reads+i)%len(fast)]
				if err := c.ReadPage(p, buf); err != nil || buf[0] != byte(p) {
					t.Errorf("read of page %d during the stall: %v, first byte %d", p, err, buf[0])
					return
				}
			}
		}(g)
	}
	if err := c.Ping(); err != nil {
		t.Errorf("ping during the stall: %v", err)
	}
	wg.Wait()
	close(stop)
	if m := <-most; m > maxIdleBufs {
		t.Errorf("%d handlers waited at once, want at most %d", m, maxIdleBufs)
	}
	select {
	case err := <-heldDone:
		t.Errorf("the stalled read returned (%v) before the storm was answered", err)
	default:
		if idle() == 0 {
			t.Error("no handler was kept after the storm")
		}
		if err := <-heldDone; err != nil {
			t.Errorf("stalled read: %v", err)
		}
	}
	c.Close()
	srv.Close()
	leakcheck.Check(t, goroutines)
}

// TestReadRunFallsBackPageByPage: a run the server will not answer as a
// run — one page of it is off its device — fails whole, is not retried,
// books nothing, and its pages can be read one by one; a run the client
// refuses is read page by page, and only the refused page fails.
func TestReadRunFallsBackPageByPage(t *testing.T) {
	ctx := context.Background()
	run := func(c *Client, ids ...disk.PageID) []error {
		bufs, errs := make([][]byte, len(ids)), make([]error, len(ids))
		for i := range bufs {
			bufs[i] = make([]byte, c.PageSize())
		}
		c.ReadPages(ctx, ids, bufs, errs)
		return errs
	}

	// One page of the run is past the server's device though inside the
	// extent the client believes in: the server refuses the run.
	sim := numberedPages(t, 8)
	c := wirePair(t, sim, ClientConfig{})
	c.mu.Lock()
	c.numPages = 16
	c.mu.Unlock()
	for i, err := range run(c, 1, 12, 3) {
		if err == nil || disk.Retryable(err) {
			t.Errorf("page %d of a run with a page off the device: %v, want the server's refusal", i, err)
		}
	}
	if st := c.Stats(); st.Reads != 0 {
		t.Errorf("the failed run booked %d reads", st.Reads)
	}
	if got := c.sends.Value(); got != 2 { // Dial's info, and the run once
		t.Errorf("%d requests sent, want 2: a refusal is not retried", got)
	}
	buf := make([]byte, c.PageSize())
	if err := c.ReadPageCtx(ctx, 3, buf); err != nil || buf[0] != 3 {
		t.Errorf("single read after the refused run: %v, first byte %d", err, buf[0])
	}
	// A page the client itself would refuse sends every page on its own,
	// and only that page fails.
	errs := run(c, 1, 99, 3)
	if errs[0] != nil || !errors.Is(errs[1], disk.ErrOutOfRange) || errs[2] != nil {
		t.Errorf("run with a page the client refuses: %v", errs)
	}
	if st := c.Stats(); st.Reads != 3 {
		t.Errorf("%d reads booked, want the three pages that arrived", st.Reads)
	}
}

// TestReadArmBookings pins when a read moves the client's arm. A page
// read is booked once, before the call, whatever the server answers; a
// read the client refuses and a run that is not answered book nothing.
func TestReadArmBookings(t *testing.T) {
	ctx := context.Background()
	c := wirePair(t, numberedPages(t, 8), ClientConfig{})
	c.mu.Lock()
	c.numPages = 16 // pages 8..15 are off the server's device
	c.mu.Unlock()
	buf := make([]byte, c.PageSize())
	check := func(what string, reads int64, head disk.PageID) {
		t.Helper()
		if st, h := c.Stats(), c.Head(); st.Reads != reads || h != head {
			t.Errorf("after %s: %d reads booked, head %d; want %d, head %d", what, st.Reads, h, reads, head)
		}
	}

	if err := c.ReadPageCtx(ctx, 5, buf); err != nil {
		t.Fatal(err)
	}
	check("a page read", 1, 5)
	if err := c.ReadPageCtx(ctx, 12, buf); err == nil {
		t.Fatal("a page off the server's device was read")
	}
	check("a page read the server fails", 2, 12)
	errs := make([]error, 1)
	c.ReadPages(ctx, []disk.PageID{14}, [][]byte{buf}, errs)
	if errs[0] == nil {
		t.Fatal("a run of one page off the server's device was read")
	}
	check("a run of one page the server fails", 3, 14)

	if err := c.ReadPageCtx(ctx, 99, buf); !errors.Is(err, disk.ErrOutOfRange) {
		t.Fatalf("page past the extent: %v", err)
	}
	if err := c.ReadPageCtx(ctx, 3, buf[:1]); !errors.Is(err, disk.ErrBadLength) {
		t.Fatalf("short buffer: %v", err)
	}
	check("page reads the client refuses", 3, 14)

	bufs := [][]byte{make([]byte, c.PageSize()), make([]byte, c.PageSize()), make([]byte, c.PageSize())}
	errs = make([]error, 3)
	c.ReadPages(ctx, []disk.PageID{1, 13, 3}, bufs, errs)
	for i, err := range errs {
		if err == nil {
			t.Errorf("page %d of a run the server fails was read", i)
		}
	}
	check("a run the server fails", 3, 14)
}

// BenchmarkWireReadN is a run of four pages read over loopback TCP in
// one frame each way: what scan-sharded pays per run.
func BenchmarkWireReadN(b *testing.B) {
	c := wirePair(b, numberedPages(b, 64), ClientConfig{})
	ids := make([]disk.PageID, 4)
	bufs := make([][]byte, len(ids))
	for i := range bufs {
		bufs[i] = make([]byte, c.PageSize())
	}
	errs := make([]error, len(ids))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range ids {
			ids[k] = disk.PageID((4*i + k) % 64)
		}
		c.ReadPages(ctx, ids, bufs, errs)
		if err := errors.Join(errs...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireRead is one page read over loopback TCP, client and
// in-process server: the round trip scan-sharded pays per miss.
func BenchmarkWireRead(b *testing.B) {
	c := wirePair(b, numberedPages(b, 64), ClientConfig{})
	buf := make([]byte, c.PageSize())
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.ReadPageCtx(ctx, disk.PageID(i%64), buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLateResponseLeavesReturnedBufferAlone: a read that timed out has
// handed its page buffer back to its caller, who may have put anything
// in it by the time the answer turns up. The late answer must not touch
// the buffer, and the connection must go on working. The peer is played
// by hand, over the reference encoders, so that the late answer is on
// the stream ahead of the next one — by the time the next read returns,
// the client has dealt with it.
func TestLateResponseLeavesReturnedBufferAlone(t *testing.T) {
	goroutines := leakcheck.Snapshot()
	const ps = 256
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	timedOut := make(chan struct{})
	peer := make(chan error, 1)
	go func() {
		peer <- func() error {
			conn, err := ln.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			next := func() (request, error) {
				p, err := readFrame(conn)
				if err != nil {
					return request{}, err
				}
				return decodeRequest(p)
			}
			answer := func(req request, body []byte) error {
				return writeFrame(conn, encodeResponse(response{status: stOK, reqID: req.reqID, body: body}))
			}
			info, err := next()
			if err != nil {
				return err
			}
			geometry := make([]byte, 28)
			geometry[0], geometry[9] = 8, ps>>8
			if err := answer(info, geometry); err != nil {
				return err
			}
			first, err := next()
			if err != nil {
				return err
			}
			<-timedOut
			if err := answer(first, bytes.Repeat([]byte{0x11}, ps)); err != nil {
				return err
			}
			second, err := next()
			if err != nil {
				return err
			}
			return answer(second, bytes.Repeat([]byte{0x22}, ps))
		}()
	}()

	c, err := Dial(ClientConfig{Primary: ln.Addr().String(), Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, ps)
	if err := c.ReadPage(5, buf); err == nil || !disk.Retryable(err) {
		t.Fatalf("unanswered read: %v, want a (transient) timeout", err)
	}
	// The buffer is the caller's again: it now holds something else.
	for i := range buf {
		buf[i] = 0xEE
	}
	close(timedOut)
	other := make([]byte, ps)
	if err := c.ReadPage(3, other); err != nil {
		t.Fatalf("read after the late answer: %v", err)
	}
	if other[0] != 0x22 || other[ps-1] != 0x22 {
		t.Fatalf("read after the late answer returned %#x…%#x", other[0], other[ps-1])
	}
	for i, b := range buf {
		if b != 0xEE {
			t.Fatalf("the late answer wrote to the returned buffer: byte %d is %#x", i, b)
		}
	}
	if err := <-peer; err != nil {
		t.Fatalf("peer: %v", err)
	}
	c.Close()
	leakcheck.Check(t, goroutines)
}

// TestDialRefusesPageSize: a peer whose Info reply gives a page size of
// 0, or one too large for a page to fit a frame, is refused at Dial with
// ErrBadFrame — a client that took it would divide by it, or split every
// run into frames the peer refuses.
func TestDialRefusesPageSize(t *testing.T) {
	dial := func(ps int) (*Client, error) {
		_, addr := startServer(t, []disk.Device{pageSized{disk.New(8), ps}}, ServerConfig{})
		return Dial(ClientConfig{Primary: addr})
	}
	for _, ps := range []int{0, maxFrame - respHdrSize + 1, 1 << 31} {
		c, err := dial(ps)
		if !errors.Is(err, ErrBadFrame) {
			if c != nil {
				c.Close()
			}
			t.Errorf("page size %d: Dial = %v, want ErrBadFrame", ps, err)
		}
	}
	for _, ps := range []int{1, maxFrame - respHdrSize} {
		c, err := dial(ps)
		if err != nil {
			t.Fatalf("page size %d: Dial = %v", ps, err)
		}
		c.Close()
	}
}

// pageSized is a device that reports a page size of its own.
type pageSized struct {
	disk.Device
	ps int
}

func (d pageSized) PageSize() int { return d.ps }

// TestBulkWriteKeepsNoBuffer: a run of writes far larger than any read
// leaves neither side holding a buffer its size. The client sends the
// images from the caller's buffers, so its frame buffer holds no more
// than the page ids; the server keeps no buffer larger than a read has
// been answered in, or than its frame reader's own.
func TestBulkWriteKeepsNoBuffer(t *testing.T) {
	const n = 64
	srv, addr := startServer(t, []disk.Device{numberedPages(t, n)}, ServerConfig{})
	c := dialT(t, ClientConfig{Primary: addr})
	ctx := context.Background()
	ids, bufs, errs := make([]disk.PageID, n), make([][]byte, n), make([]error, n)
	for i := range ids {
		ids[i], bufs[i] = disk.PageID(i), make([]byte, c.PageSize())
	}
	c.ReadPages(ctx, ids[:4], bufs[:4], errs[:4]) // a read run sets what is kept
	c.WritePages(ids, bufs, errs)
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil { // the write's handler is done with its buffer
		t.Fatal(err)
	}
	c.cmu.Lock()
	cc := c.conn
	c.cmu.Unlock()
	cc.wm.Lock()
	if got, want := cap(cc.frame), reqHdrSize+4*n; got > 2*want {
		t.Errorf("client frame buffer of %d bytes after the run, want no more than the ids' %d", got, want)
	}
	cc.wm.Unlock()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for _, sc := range srv.conns {
		sc.mu.Lock()
		for _, buf := range sc.idle {
			if cap(buf) > max(frameBufSize, sc.readMax) || cap(buf) >= n*c.PageSize() {
				t.Errorf("server keeps a %d-byte buffer; its reads needed %d", cap(buf), sc.readMax)
			}
		}
		sc.mu.Unlock()
	}
}

// TestWriteRunFallsBackPageByPage: a run with one page past the extent
// the client knows is refused by the client, and written page by page
// instead: the refused page fails on its own, never sent, and each other
// page is sent once, with a verdict and an arm booking of its own.
func TestWriteRunFallsBackPageByPage(t *testing.T) {
	sim := numberedPages(t, 8)
	c := wirePair(t, sim, ClientConfig{})
	ids, errs := []disk.PageID{1, 99, 3}, make([]error, 3)
	bufs := make([][]byte, len(ids))
	for i := range bufs {
		bufs[i] = bytes.Repeat([]byte{0xE0 + byte(i)}, c.PageSize())
	}
	c.WritePages(ids, bufs, errs)
	if errs[0] != nil || !errors.Is(errs[1], disk.ErrOutOfRange) || errs[2] != nil {
		t.Fatalf("run with a page the client refuses: %v", errs)
	}
	if got := c.sends.Value(); got != 3 { // Dial's info, and pages 1 and 3 once each
		t.Errorf("%d requests sent, want 3: a refusal is neither sent nor retried", got)
	}
	if st := c.Stats(); st.Writes != 2 {
		t.Errorf("%d writes booked, want the two pages written", st.Writes)
	}
	page := make([]byte, sim.PageSize())
	for _, i := range []int{0, 2} {
		if err := sim.ReadPage(ids[i], page); err != nil || !bytes.Equal(page, bufs[i]) {
			t.Errorf("page %d does not hold its image after the run (%v)", ids[i], err)
		}
	}
}
