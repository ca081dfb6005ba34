package pagesvc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

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

// TestFrameBytes: every frame either side sends — each op, with the v1
// and the extended header, ok and error responses, Follow records — is
// byte for byte the frame writeFrame and the encode* functions of
// wire_model_test.go make, and reaches the connection in one Write.
func TestFrameBytes(t *testing.T) {
	sim := disk.New(4)
	ps := sim.PageSize()
	img := bytes.Repeat([]byte{0xA5}, ps)
	if err := sim.WritePage(2, img); err != nil {
		t.Fatal(err)
	}
	writeBody := append([]byte{3, 0, 0, 0}, img...)

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
	}

	srv := NewServer([]disk.Device{sim}, ServerConfig{Epoch: 3})
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
		oneWrite(t, what, client, encodeRequest(req))

		buf := append(sc.take(), encodeRequest(req)...)
		got, err := decodeRequest(buf)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if req.op == opFollow {
			srv.serveFollow(sc, got, buf)
		} else {
			out := srv.handle(got, buf)
			sc.send(out[len(buf):], out)
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
// hands out the payloads readFrame does, including one larger than its
// buffer and an empty one.
func TestFrameReaderSplits(t *testing.T) {
	payloads := [][]byte{
		encodeRequest(request{op: opRead, reqID: 1, body: []byte{1, 0, 0, 0}}),
		{},
		encodeResponse(response{status: stOK, reqID: 1, body: bytes.Repeat([]byte{7}, 1024)}),
		bytes.Repeat([]byte{9}, frameBufSize+17),
		encodeStreamRecord(5, 9, 2, bytes.Repeat([]byte{0xAB}, 32)),
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
// client and in-process server together: the closure of the server's
// handler goroutine. Before frames were assembled in kept buffers and
// waiters recycled the figure was 16 (3.9 KB).
const wireReadAllocs = 1

// TestWireReadAllocs pins the allocations of one page read over the
// wire, both ends counted.
func TestWireReadAllocs(t *testing.T) {
	if raceEnabled {
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
