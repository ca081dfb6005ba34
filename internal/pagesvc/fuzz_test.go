package pagesvc

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"revelation/internal/disk"
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
// the v1/v2 request header (qid high-bit flag plus the epoch field),
// the response header, the error body, the Follow stream record, and
// the promote body. Whatever the input, decoding must return a
// classified error or a well-formed value, never panic or index out of
// bounds; and any frame that decodes cleanly must survive a
// re-encode/re-decode round trip unchanged (headers are canonical). The
// input reaches the decoders the way frames do: framed, and through a
// frameReader fed the stream in two pieces, split at every byte
// boundary — the payload handed out must be the input each time. What
// decodes is re-encoded by the append* functions and by the reference
// encoders of wire_model_test.go, which must agree byte for byte — also
// when the sender names the leading page ids apart from the body. A
// request that decodes as a read, of a page or of a run, is handed to a
// server: it must answer with one well-formed frame, the images of
// exactly the pages asked for or an error, whatever the ids say.
func FuzzProtoDecode(f *testing.F) {
	// A valid v1 read request.
	f.Add(encodeRequest(request{op: opRead, dev: DataDev, reqID: 7, body: []byte{1, 0, 0, 0}}))
	// A valid v2 request: qid and epoch ride the extended header.
	f.Add(encodeRequest(request{op: opWrite, dev: DataDev, reqID: 9, qid: 42, epoch: 3, body: []byte{0}}))
	// Flag set but the frame too short for the extended header.
	f.Add([]byte{opRead | opQIDFlag, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	// Runs: three pages, no page at all, a ragged list of ids, a page
	// off the end of the device.
	f.Add(encodeRequest(request{op: opReadN, dev: DataDev, reqID: 11, body: []byte{1, 0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0}}))
	f.Add(encodeRequest(request{op: opReadN, dev: DataDev, reqID: 12}))
	f.Add(encodeRequest(request{op: opReadN, dev: DataDev, reqID: 13, qid: 5, body: []byte{1, 0, 0, 0, 3}}))
	f.Add(encodeRequest(request{op: opReadN, dev: DataDev, reqID: 14, body: []byte{1, 0, 0, 0, 0xFF, 0xFF, 0, 0}}))
	// A valid promote body inside a v2 frame.
	f.Add(encodeRequest(request{op: opPromote, reqID: 1, epoch: 5, body: encodePromote(5, 100, true)}))
	// Response frames: ok, error, stream.
	f.Add(encodeResponse(response{status: stOK, reqID: 3, body: []byte("payload")}))
	f.Add(encodeResponse(response{status: stErr, reqID: 4, body: encodeErr(ErrFenced)}))
	f.Add(encodeStreamRecord(5, 9, 2, bytes.Repeat([]byte{0xAB}, 32)))
	f.Add([]byte{})
	f.Add([]byte{0xFF})

	sim := disk.New(fuzzPages)
	img := make([]byte, sim.PageSize())
	for id := range disk.PageID(fuzzPages) {
		img[0] = byte(id) + 1
		if err := sim.WritePage(id, img); err != nil {
			f.Fatal(err)
		}
	}
	srv := NewServer([]disk.Device{sim}, ServerConfig{})

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
			if req.op == opRead || req.op == opReadN {
				fuzzServeRead(t, srv, req, p)
			}
			// Round trip: decoded fields re-encode to a frame that
			// decodes identically. (The raw bytes may differ — a v2
			// frame with qid 0 and epoch 0 re-encodes as v1.)
			again, err := decodeRequest(encodeRequest(req))
			if err != nil {
				t.Fatalf("re-decode of re-encoded request: %v", err)
			}
			if again.op != req.op || again.dev != req.dev || again.reqID != req.reqID ||
				again.qid != req.qid || again.epoch != req.epoch || !bytes.Equal(again.body, req.body) {
				t.Fatalf("request round trip diverged: %+v vs %+v", req, again)
			}
			if req.op == opPromote {
				if epoch, minLSN, writable, err := decodePromote(req.body); err == nil {
					if !bytes.Equal(encodePromote(epoch, minLSN, writable), req.body) {
						t.Fatalf("promote body round trip diverged")
					}
				}
			}
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
				_ = decodeErr(resp.body) // must classify, never panic
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
		}
	})
}

// fuzzPages is the size of the device FuzzProtoDecode's server fronts.
const fuzzPages = 8

// fuzzServeRead hands a read request that decoded from payload to srv,
// whose device's page id starts with byte id+1, and checks the answer:
// one frame; the images of the pages asked for, in order, when the body
// is one id (opRead) or a whole number of ids, at least one and no more
// than fit a frame (opReadN), all on device 0 and inside it; an error
// response otherwise.
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
	valid := req.dev == 0 && len(req.body)%4 == 0 && n >= 1 && (req.op == opReadN || n == 1) && n*ps <= maxFrame-respHdrSize
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

	// An extended-header op with a truncated header: decodeRequest fails.
	bad := []byte{opRead | opQIDFlag, 0, 1, 2, 3, 4, 5, 6, 7, 8}
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
