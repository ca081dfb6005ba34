package pagesvc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"testing"
	"time"

	"revelation/internal/disk"
	"revelation/internal/wal"
)

// dialRaw opens a bare TCP connection to the page service, for tests
// that speak the wire protocol by hand.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// FuzzProtoDecode throws arbitrary bytes at every wire-decode path —
// the request header (query id and epoch included), the response header,
// the error body (whose code must survive a decode and re-encode), the
// Follow stream record and delta, and the promote body. Whatever the
// input, decoding must return a classified error or a well-formed value,
// never panic or index out of bounds; and any frame that decodes cleanly must survive a
// re-encode/re-decode round trip unchanged (headers are canonical). A
// frame that does not decode as a request is answered by a server's
// connection with one well-formed error frame, after which it closes. The
// input reaches the decoders the way frames do: framed, and through a
// frameReader fed the stream in two pieces, split at every byte
// boundary — the payload handed out must be the input each time. What
// decodes is re-encoded by the append* functions and by the reference
// encoders of wire_model_test.go, which must agree byte for byte — also
// when the sender names the leading page ids apart from the body. A
// request that decodes as a read, of a page or of a run, is handed to a
// server: it must answer with one well-formed frame, the images of
// exactly the pages asked for or an error, whatever the ids say. One
// that decodes as a write, of a page or of a run, is handed to a second
// server: it must answer with one well-formed frame — done, short at its
// first page off the device, or an error — and leave the device holding
// the images it says it wrote; a sender that names the ids and images
// apart sends the same frame.
func FuzzProtoDecode(f *testing.F) {
	// A read of one page.
	f.Add(encodeRequest(request{op: opRead, dev: DataDev, reqID: 7, body: []byte{1, 0, 0, 0}}))
	// A write with a query id and an epoch, and a one-byte body.
	f.Add(encodeRequest(request{op: opWrite, dev: DataDev, reqID: 9, qid: 42, epoch: 3, body: []byte{0}}))
	// Headers too short: the 10-byte one of op, device and request id
	// alone, and the whole header but its last byte.
	f.Add([]byte{opPing, DataDev, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(encodeRequest(request{op: opPing, dev: DataDev, reqID: 8, qid: 42, epoch: 3})[:25])
	// Runs: three pages, no page at all, a ragged list of ids, a page
	// off the end of the device.
	f.Add(encodeRequest(request{op: opRead, dev: DataDev, reqID: 11, body: []byte{1, 0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0}}))
	f.Add(encodeRequest(request{op: opRead, dev: DataDev, reqID: 12}))
	f.Add(encodeRequest(request{op: opRead, dev: DataDev, reqID: 13, qid: 5, body: []byte{1, 0, 0, 0, 3}}))
	f.Add(encodeRequest(request{op: opRead, dev: DataDev, reqID: 14, body: []byte{1, 0, 0, 0, 0xFF, 0xFF, 0, 0}}))
	// Write runs: one page and three, no page at all, a ragged body, a
	// page off the end of the device.
	ps := disk.DefaultPageSize
	writeBody := func(ids ...byte) []byte {
		var b []byte
		for _, id := range ids {
			b = append(b, id, 0, 0, 0)
		}
		for _, id := range ids {
			b = append(b, bytes.Repeat([]byte{id + 0x40}, ps)...)
		}
		return b
	}
	f.Add(encodeRequest(request{op: opWrite, dev: DataDev, reqID: 15, body: writeBody(2)}))
	f.Add(encodeRequest(request{op: opWrite, dev: DataDev, reqID: 16, qid: 5, body: writeBody(1, 3, 1)}))
	f.Add(encodeRequest(request{op: opWrite, dev: DataDev, reqID: 17}))
	f.Add(encodeRequest(request{op: opWrite, dev: DataDev, reqID: 18, body: writeBody(1, 2)[1:]}))
	f.Add(encodeRequest(request{op: opWrite, dev: DataDev, reqID: 19, body: writeBody(4, 0xFF, 5)}))
	// A valid promote body inside a v2 frame.
	f.Add(encodeRequest(request{op: opPromote, reqID: 1, epoch: 5, body: encodePromote(5, 100, true)}))
	// Response frames: ok, error, stream.
	f.Add(encodeResponse(response{status: stOK, reqID: 3, body: []byte("payload")}))
	for _, r := range errCodes {
		f.Add(encodeResponse(response{status: stErr, reqID: 4, body: encodeErr(fmt.Errorf("%w: page 3", r.is[0]))}))
	}
	f.Add(encodeStreamRecord(5, 9, 2, bytes.Repeat([]byte{0xAB}, 32)))
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	// Follow deltas: a whole one, one of no bytes, one cut inside its
	// fixed part.
	delta := appendDeltaRecord(nil, 6, wal.Record{LSN: 10, Page: 3, Prev: 9, Off: 40, Img: []byte("8 bytes!")})[4:]
	f.Add(delta)
	f.Add(delta[:respHdrSize+deltaHdrSize])
	f.Add(delta[:respHdrSize+deltaHdrSize-1])

	sim := disk.New(fuzzPages)
	img := make([]byte, sim.PageSize())
	for id := range disk.PageID(fuzzPages) {
		img[0] = byte(id) + 1
		if err := sim.WritePage(id, img); err != nil {
			f.Fatal(err)
		}
	}
	srv := NewServer([]disk.Device{sim}, ServerConfig{})
	wsrv := NewServer([]disk.Device{disk.New(fuzzPages)}, ServerConfig{})

	f.Fuzz(func(t *testing.T, in []byte) {
		p := throughFrameReader(t, in)
		if req, err := decodeRequest(p); err == nil {
			if got, want := appendRequest(nil, req), framed(encodeRequest(req)); !bytes.Equal(got, want) {
				t.Fatalf("appendRequest(%+v) = %x, reference %x", req, got, want)
			}
			// The same frame from a sender that names the body's leading
			// page ids — all of them, then all but one — as pages.
			for n := len(req.body) / 4; n >= 0 && n >= len(req.body)/4-1; n-- {
				split := req
				split.pages, split.body = make([]disk.PageID, n), req.body[4*n:]
				for i := range split.pages {
					split.pages[i] = disk.PageID(binary.LittleEndian.Uint32(req.body[4*i:]))
				}
				if got, want := appendRequest(nil, split), framed(encodeRequest(req)); !bytes.Equal(got, want) {
					t.Fatalf("appendRequest with %d ids as pages = %x, reference %x", n, got, want)
				}
			}
			if req.op == opRead {
				fuzzServeRead(t, srv, req, p)
			}
			if req.op == opWrite {
				fuzzServeWrite(t, wsrv, req, p)
			}
			// Round trip: the decoded fields re-encode to the payload
			// they came from.
			if again := encodeRequest(req); !bytes.Equal(again, p) {
				t.Fatalf("request %+v re-encodes as %x, want %x", req, again, p)
			}
			if req.op == opPromote {
				if epoch, minLSN, writable, err := decodePromote(req.body); err == nil {
					if !bytes.Equal(encodePromote(epoch, minLSN, writable), req.body) {
						t.Fatalf("promote body round trip diverged")
					}
				}
			}
		} else {
			fuzzRefuse(t, srv, p)
		}
		if resp, err := decodeResponse(p); err == nil {
			if got, want := appendResponse(nil, resp), framed(encodeResponse(resp)); !bytes.Equal(got, want) {
				t.Fatalf("appendResponse(%+v) = %x, reference %x", resp, got, want)
			}
			again, err := decodeResponse(encodeResponse(resp))
			if err != nil {
				t.Fatalf("re-decode of re-encoded response: %v", err)
			}
			if again.status != resp.status || again.reqID != resp.reqID || !bytes.Equal(again.body, resp.body) {
				t.Fatalf("response round trip diverged")
			}
			if resp.status == stErr {
				derr := decodeErr(resp.body) // must classify, never panic
				if len(resp.body) > 0 {
					// Every code decodes to an error that encodes back to
					// it; an unknown one, to one that encodes as classOther.
					want := classOther
					for _, r := range errCodes {
						if r.code == resp.body[0] {
							want = r.code
						}
					}
					if got := encodeErr(derr)[0]; got != want {
						t.Fatalf("error code %d decodes to one of code %d, want %d", resp.body[0], got, want)
					}
				}
			}
			if resp.status == stStream {
				if lsn, page, img, err := decodeStreamRecord(resp.body); err == nil {
					redone := encodeStreamRecord(resp.reqID, lsn, page, img)
					if !bytes.Equal(redone, encodeResponse(resp)) {
						t.Fatalf("stream record round trip diverged")
					}
					if got := appendStreamRecord(nil, resp.reqID, lsn, page, img); !bytes.Equal(got, framed(redone)) {
						t.Fatalf("appendStreamRecord = %x, reference %x", got, framed(redone))
					}
				}
			}
			if resp.status == stDelta {
				if rec, err := decodeDeltaRecord(resp.body); err == nil {
					if got := appendDeltaRecord(nil, resp.reqID, rec); !bytes.Equal(got, framed(encodeResponse(resp))) {
						t.Fatalf("appendDeltaRecord(%+v) = %x, want the frame it came from", rec, got)
					}
				} else if len(resp.body) >= deltaHdrSize {
					t.Fatalf("a %d-byte delta body refused: %v", len(resp.body), err)
				}
			}
		}
	})
}

// fuzzPages is the size of the device FuzzProtoDecode's server fronts.
const fuzzPages = 8

// fuzzServeRead hands a read request that decoded from payload to srv,
// whose device's page id starts with byte id+1, and checks the answer:
// one frame; the images of the pages asked for, in order, when the body
// is a whole number of ids, at least one and no more than fit a frame,
// all on device 0 and inside it; an error response otherwise.
func fuzzServeRead(t *testing.T, srv *Server, req request, payload []byte) {
	buf := append([]byte(nil), payload...)
	got, err := decodeRequest(buf)
	if err != nil {
		t.Fatal(err)
	}
	out := srv.handle(got, buf)
	frame := out[len(buf):]
	body, err := readFrame(bytes.NewReader(frame))
	if err != nil || len(body)+4 != len(frame) {
		t.Fatalf("answer to %s is not one frame: %d bytes, %v", opName(req.op), len(frame), err)
	}
	resp, err := decodeResponse(body)
	if err != nil || resp.reqID != req.reqID {
		t.Fatalf("answer to %s: %+v, %v", opName(req.op), resp, err)
	}
	ps := srv.devs[0].PageSize()
	n := len(req.body) / 4
	valid := req.dev == 0 && len(req.body)%4 == 0 && n >= 1 && n*ps <= maxFrame-respHdrSize
	for i := 0; valid && i < n; i++ {
		valid = binary.LittleEndian.Uint32(req.body[4*i:]) < fuzzPages
	}
	if !valid {
		if resp.status != stErr {
			t.Fatalf("%s of % x answered with status %d, want an error", opName(req.op), req.body, resp.status)
		}
		return
	}
	if resp.status != stOK || len(resp.body) != n*ps {
		t.Fatalf("%s of %d pages: status %d, %d bytes", opName(req.op), n, resp.status, len(resp.body))
	}
	for i := 0; i < n; i++ {
		if id := binary.LittleEndian.Uint32(req.body[4*i:]); resp.body[i*ps] != byte(id)+1 {
			t.Fatalf("%s: image %d is page %d's, want page %d's", opName(req.op), i, resp.body[i*ps]-1, id)
		}
	}
}

// fuzzServeWrite hands a write request that decoded from payload to srv
// and checks the answer: one frame; for a body of n ≥ 1 ids and their n
// images on device 0, each id's image on the device
// up to the first id off it — and then, for a run of several, a short
// answer saying how many were written, for a page write an error — and
// an empty answer when every id is on it; an error response otherwise. A
// well-formed write is also sent by a sender that names its ids in pages
// and its images in imgs: the same bytes.
func fuzzServeWrite(t *testing.T, srv *Server, req request, payload []byte) {
	buf := append([]byte(nil), payload...)
	got, err := decodeRequest(buf)
	if err != nil {
		t.Fatal(err)
	}
	out := srv.handle(got, buf)
	frame := out[len(buf):]
	body, err := readFrame(bytes.NewReader(frame))
	if err != nil || len(body)+4 != len(frame) {
		t.Fatalf("answer to %s is not one frame: %d bytes, %v", opName(req.op), len(frame), err)
	}
	resp, err := decodeResponse(body)
	if err != nil || resp.reqID != req.reqID {
		t.Fatalf("answer to %s: %+v, %v", opName(req.op), resp, err)
	}
	dev := srv.devs[0]
	ps := dev.PageSize()
	n := len(req.body) / (4 + ps)
	if req.dev != 0 || n == 0 || len(req.body)%(4+ps) != 0 {
		if resp.status != stErr {
			t.Fatalf("%s of %d bytes answered with status %d, want an error", opName(req.op), len(req.body), resp.status)
		}
		return
	}
	split := req
	split.pages, split.body, split.imgs = make([]disk.PageID, n), nil, make([][]byte, n)
	for i := range split.pages {
		split.pages[i] = disk.PageID(binary.LittleEndian.Uint32(req.body[4*i:]))
		split.imgs[i] = req.body[4*n+i*ps : 4*n+(i+1)*ps]
	}
	if got, want := append(appendRequest(nil, split), bytes.Join(split.imgs, nil)...), framed(encodeRequest(req)); !bytes.Equal(got, want) {
		t.Fatalf("appendRequest with ids and images apart, and the images = %x, reference %x", got, want)
	}
	written := slices.IndexFunc(split.pages, func(p disk.PageID) bool { return p >= fuzzPages })
	switch {
	case written < 0:
		written = n
		if resp.status != stOK || len(resp.body) != 0 {
			t.Fatalf("%s of %d pages on the device: status %d, %d-byte body", opName(req.op), n, resp.status, len(resp.body))
		}
	case n == 1:
		if resp.status != stErr {
			t.Fatalf("%s of page %d off the device: status %d, want an error", opName(req.op), split.pages[0], resp.status)
		}
	default:
		if resp.status != stOK || len(resp.body) != 4 || int(binary.LittleEndian.Uint32(resp.body)) != written {
			t.Fatalf("%s off the device at %d of %d: status %d, body % x", opName(req.op), written, n, resp.status, resp.body)
		}
	}
	page := make([]byte, ps)
	for i, p := range split.pages[:written] {
		if slices.Contains(split.pages[i+1:written], p) {
			continue // a later image of the same page wins
		}
		if err := dev.ReadPage(p, page); err != nil || !bytes.Equal(page, split.imgs[i]) {
			t.Fatalf("%s: page %d after the write does not hold image %d (%v)", opName(req.op), p, i, err)
		}
	}
}

// fuzzRefuse hands payload, which does not decode as a request, to a
// connection of srv, followed by a ping, and checks that the server
// answers one well-formed error frame under request id 0 and nothing
// more: the connection is closed before the ping is read.
func fuzzRefuse(t *testing.T, srv *Server, payload []byte) {
	conn := &scriptConn{in: bytes.NewReader(slices.Concat(framed(payload), framed(encodeRequest(request{op: opPing, reqID: 1}))))}
	srv.wg.Add(1)
	srv.serveConn(&serverConn{c: conn, jobs: make(chan job), waiting: make(chan struct{}, maxIdleBufs)})
	if len(conn.writes) != 1 {
		t.Fatalf("a %d-byte frame that is no request answered in %d writes, want 1", len(payload), len(conn.writes))
	}
	body, err := readFrame(bytes.NewReader(conn.writes[0]))
	if err != nil || len(body)+4 != len(conn.writes[0]) {
		t.Fatalf("answer to a %d-byte frame that is no request is not one frame: %v", len(payload), err)
	}
	resp, err := decodeResponse(body)
	if err != nil || resp.status != stErr || resp.reqID != 0 || len(resp.body) == 0 || resp.body[0] != classOther {
		t.Fatalf("answer to a %d-byte frame that is no request: %+v, %v; want an error frame of request 0", len(payload), resp, err)
	}
}

// scriptConn is a recConn that reads from in.
type scriptConn struct {
	recConn
	in io.Reader
}

func (c *scriptConn) Read(p []byte) (int, error) { return c.in.Read(p) }

// framed is payload as the reference puts it on the wire.
func framed(payload []byte) []byte {
	var b bytes.Buffer
	writeFrame(&b, payload)
	return b.Bytes()
}

// throughFrameReader frames in, follows it with a second frame, and
// reads the stream back through a frameReader once for every way of
// cutting it in two (every 61st way once it is longer than 1 KB). It
// returns the payload as the reader handed it out.
func throughFrameReader(t *testing.T, in []byte) []byte {
	stream := append(framed(in), framed([]byte("next"))...)
	stride := 1
	if len(stream) > 1024 {
		stride = 61
	}
	var out []byte
	for cut := 0; cut <= len(stream); cut += stride {
		fr := newFrameReader(io.MultiReader(bytes.NewReader(stream[:cut]), bytes.NewReader(stream[cut:])))
		p, err := fr.next()
		if err != nil || !bytes.Equal(p, in) {
			t.Fatalf("cut at %d: frame reader handed out %x (%v), want %x", cut, p, err, in)
		}
		out = append(out[:0], p...)
		if p, err := fr.next(); err != nil || string(p) != "next" {
			t.Fatalf("cut at %d: second frame %q, %v", cut, p, err)
		}
	}
	return out
}

// TestMalformedFrameClosesConn: a frame the server cannot decode must
// answer with a classified error and then close the connection — the
// framing state is unrecoverable — and must never take the server
// down. The classified error is what distinguishes "you sent garbage"
// from a silent hang at the client.
func TestMalformedFrameClosesConn(t *testing.T) {
	sim := disk.New(4)
	srv, addr := startServer(t, []disk.Device{sim}, ServerConfig{})

	// A read of page 2 under a header too short by its query id and
	// epoch: decodeRequest fails.
	bad := []byte{opRead, DataDev, 1, 2, 3, 4, 5, 6, 7, 8, 2, 0, 0, 0}
	conn := dialRaw(t, addr)
	defer conn.Close()
	if err := writeFrame(conn, bad); err != nil {
		t.Fatal(err)
	}
	payload, err := readFrame(conn)
	if err != nil {
		t.Fatalf("want a classified error frame before close, got %v", err)
	}
	resp, err := decodeResponse(payload)
	if err != nil || resp.status != stErr {
		t.Fatalf("bad-frame answer = %+v, %v; want stErr", resp, err)
	}
	if derr := decodeErr(resp.body); derr == nil {
		t.Fatal("bad-frame error body did not classify")
	}
	// The connection is now closed server-side: the next read ends.
	if _, err := readFrame(conn); err == nil {
		t.Fatal("connection survived a malformed frame")
	}

	// The server itself is fine: a fresh client works.
	c := dialT(t, ClientConfig{Primary: addr})
	buf := make([]byte, c.PageSize())
	if err := c.ReadPage(0, buf); err != nil {
		t.Fatalf("server unhealthy after malformed frame: %v", err)
	}
	_ = srv
}
