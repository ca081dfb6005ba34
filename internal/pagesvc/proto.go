// Package pagesvc puts a network between the buffer pool and its
// pages: a TCP page service speaking a small length-prefixed binary
// protocol (read, write, allocate, info, ping, and a streaming WAL
// follow; reads and writes also in runs), a server fronting any set of disk.Devices, and a client
// that itself implements disk.Device — so the buffer pool, WAL, and
// assembly operator run unchanged whether their pages are a method
// call or a round trip away.
//
// The client is one pipelined connection to one endpoint: a dead
// connection is re-dialed on the next request, and every request
// carries the fencing epoch. Retrying a transient failure and choosing
// which copy of a page answers a read — replica fallback under the
// durability floor, promotion — are decided one layer up, by
// shard.Router over several clients.
//
// Replication is WAL shipping: a replica seeds itself from a base
// backup of the primary's pages, then follows the primary's log via
// the Follow stream, applying each record with the same redo-if-newer
// rule crash recovery uses (wal.ApplyRecord) — so replica catch-up,
// reconnection, and crash recovery are one code path.
package pagesvc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"revelation/internal/disk"
	"revelation/internal/wal"
)

// Operation codes (request frames).
const (
	opRead    = byte(1) // body: [4B page]            -> OK body: page image
	opWrite   = byte(2) // body: [4B page][image]     -> OK body: empty (opWriteN of one page)
	opAlloc   = byte(3) // body: [4B n]               -> OK body: [4B first]
	opInfo    = byte(4) // body: empty                -> OK body: [8B pages][4B pageSize][8B appliedLSN][8B epoch]
	opPing    = byte(5) // body: empty                -> OK body: empty
	opFollow  = byte(6) // body: [8B fromLSN]         -> stream of stream frames
	opPromote = byte(7) // body: [8B epoch][8B minLSN][1B mode] -> OK body: [8B epoch]
	opReadN   = byte(8) // body: [4B page] × n, n ≥ 1 -> OK body: the n page images, in that order
	opWriteN  = byte(9) // body: [4B page] × n, then the n images, n ≥ 1 -> OK body: empty, or [4B written] if short
)

// Promote modes (the opPromote body's last byte).
const (
	promoteFence    = byte(0) // adopt the epoch and refuse writes (demote/fence)
	promoteWritable = byte(1) // adopt the epoch and accept writes (promote)
)

// Response status codes.
const (
	stOK     = byte(0) // request succeeded; body is op-specific
	stErr    = byte(1) // request failed; body: [1B class][message]
	stStream = byte(2) // one Follow record: [8B lsn][4B page][4B len][img]
	stDelta  = byte(3) // one Follow delta: [8B lsn][4B page][8B prev LSN][2B offset][bytes]
)

// Error classes carried in stErr bodies, mapping the server-side error
// back onto the client-side disk error taxonomy so retry decisions
// survive the network.
const (
	classTransient = byte(0) // wraps disk.ErrTransient on arrival
	classPermanent = byte(1) // wraps disk.ErrPermanent
	classOther     = byte(2) // wrapped verbatim, not retryable
	classFenced    = byte(3) // wraps ErrFenced + disk.ErrPermanent: stale epoch
)

// ErrFenced reports a request rejected by epoch fencing: the sender's
// view of the shard is stale (an old primary's late write after a
// promotion, or a request stamped with a superseded epoch). It is
// permanent by construction — retrying the same request cannot help,
// the caller must learn the new fleet state first.
var ErrFenced = errors.New("pagesvc: fenced")

// reqHdrSize is the fixed request header: [1B op][1B dev][8B reqID].
const reqHdrSize = 10

// opQIDFlag marks an extended request header (protocol v2): when the
// high bit of the op byte is set, 16 more bytes follow the base header
// — a query id attributing the request to a query span on the server,
// and the sender's fencing epoch (0 = unfenced, pre-fleet traffic).
// Requests without the flag are the v1 wire format byte for byte, so
// old clients keep working against new servers and vice versa — a v1
// server would reject flagged ops as unknown, which the v2 client
// avoids by flagging only when a query id or epoch is actually present.
const opQIDFlag = byte(0x80)

// reqHdrSizeQ is the extended header:
// [1B op|flag][1B dev][8B reqID][8B qid][8B epoch].
const reqHdrSizeQ = reqHdrSize + 16

// respHdrSize is the fixed response header: [1B status][8B reqID].
const respHdrSize = 9

// maxFrame bounds a frame payload; large enough for a page image plus
// headers on any sane page size, small enough to refuse garbage.
const maxFrame = 1 << 22

// ErrBadFrame reports a malformed frame on the wire.
var ErrBadFrame = errors.New("pagesvc: malformed frame")

// request is a request frame. qid is the originating query id and epoch
// the sender's fencing epoch (both 0 = unattributed, unfenced, encoded
// as a v1 frame). A frame's body is pages, four bytes each, followed by
// body, followed by imgs: a sender names the pages a read or write is
// about in pages and a write's images in imgs, and spares itself a body
// assembled elsewhere first; a decoded request has everything in body.
type request struct {
	op    byte
	dev   byte
	reqID uint64
	qid   uint64
	epoch uint64
	pages []disk.PageID
	body  []byte
	imgs  [][]byte
}

// response is a decoded response frame. inPlace marks one the client
// delivered into its caller's page buffers, leaving no body.
type response struct {
	status  byte
	reqID   uint64
	body    []byte
	inPlace bool
}

// Frames. Every message on the wire is one frame: a 4-byte
// little-endian payload length, then the payload (a request or response
// header and its body). A sender assembles the whole frame in a buffer
// it owns — the append* functions below — and hands it to the connection
// in one Write: with TCP_NODELAY a length prefix written on its own is a
// segment of its own, and wakes the peer for four bytes. A receiver
// reads through a frameReader, which usually finds prefix, header and
// body in one read of the socket.

// frameBufSize is a frameReader's buffer: a few frames at the paper's
// 1 KB page. A frame that does not fit — a run of pages — is read into
// a second buffer, grown to the largest such frame seen (at most
// maxFrame) and kept, unless its owner drops it: the server drops one
// grown past what its reads need (serverConn.keeps).
const frameBufSize = 4096

// frameReader hands out the payloads of the frames on a stream.
type frameReader struct {
	br   *bufio.Reader
	skip int    // bytes of the payload handed out last, still in br
	big  []byte // holds a payload larger than br
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, frameBufSize)}
}

// next returns the next frame's payload, which is valid until the call
// after: whoever keeps any of it longer copies it out.
func (fr *frameReader) next() ([]byte, error) {
	if _, err := fr.br.Discard(fr.skip); err != nil {
		return nil, err
	}
	fr.skip = 0
	hdr, err := fr.br.Peek(4)
	if err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > maxFrame {
		return nil, fmt.Errorf("%w: %d-byte frame", ErrBadFrame, n)
	}
	if size := 4 + int(n); size <= fr.br.Size() {
		frame, err := fr.br.Peek(size)
		if err != nil {
			return nil, err
		}
		fr.skip = size
		return frame[4:], nil
	}
	fr.br.Discard(4) // the four bytes just peeked
	if cap(fr.big) < int(n) {
		fr.big = make([]byte, n)
	}
	payload := fr.big[:n]
	if _, err := io.ReadFull(fr.br, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// appendRequest appends req's frame to dst — all of it but req.imgs,
// which its length counts and the sender writes behind it: the v1
// 10-byte header, extended with the query id and epoch (and flagged op
// byte) only when one is set, so unattributed unfenced traffic stays
// wire-identical to v1.
func appendRequest(dst []byte, req request) []byte {
	hdr, op := reqHdrSize, req.op
	if req.qid != 0 || req.epoch != 0 {
		hdr, op = reqHdrSizeQ, req.op|opQIDFlag
	}
	n := hdr + 4*len(req.pages) + len(req.body)
	for _, img := range req.imgs {
		n += len(img)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = append(dst, op, req.dev)
	dst = binary.LittleEndian.AppendUint64(dst, req.reqID)
	if hdr == reqHdrSizeQ {
		dst = binary.LittleEndian.AppendUint64(dst, req.qid)
		dst = binary.LittleEndian.AppendUint64(dst, req.epoch)
	}
	for _, p := range req.pages {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p))
	}
	return append(dst, req.body...)
}

// decodeRequest parses a request frame payload, accepting both header
// versions.
func decodeRequest(p []byte) (request, error) {
	if len(p) < reqHdrSize {
		return request{}, fmt.Errorf("%w: %d-byte request", ErrBadFrame, len(p))
	}
	req := request{
		op:    p[0],
		dev:   p[1],
		reqID: binary.LittleEndian.Uint64(p[2:]),
	}
	if req.op&opQIDFlag != 0 {
		if len(p) < reqHdrSizeQ {
			return request{}, fmt.Errorf("%w: %d-byte extended request", ErrBadFrame, len(p))
		}
		req.op &^= opQIDFlag
		req.qid = binary.LittleEndian.Uint64(p[reqHdrSize:])
		req.epoch = binary.LittleEndian.Uint64(p[reqHdrSize+8:])
		req.body = p[reqHdrSizeQ:]
	} else {
		req.body = p[reqHdrSize:]
	}
	return req, nil
}

// appendResponseHdr appends the start of a response frame whose body,
// of bodyLen bytes, the caller appends itself.
func appendResponseHdr(dst []byte, status byte, reqID uint64, bodyLen int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(respHdrSize+bodyLen))
	dst = append(dst, status)
	return binary.LittleEndian.AppendUint64(dst, reqID)
}

// appendResponse appends resp's frame to dst.
func appendResponse(dst []byte, resp response) []byte {
	dst = appendResponseHdr(dst, resp.status, resp.reqID, len(resp.body))
	return append(dst, resp.body...)
}

// decodeResponse parses a response frame payload.
func decodeResponse(p []byte) (response, error) {
	if len(p) < respHdrSize {
		return response{}, fmt.Errorf("%w: %d-byte response", ErrBadFrame, len(p))
	}
	return response{
		status: p[0],
		reqID:  binary.LittleEndian.Uint64(p[1:]),
		body:   p[respHdrSize:],
	}, nil
}

// encodeErr builds an stErr body from a server-side error, classifying
// it so the client can rebuild a retry-equivalent error.
func encodeErr(err error) []byte {
	class := classOther
	switch {
	case errors.Is(err, ErrFenced):
		class = classFenced
	case errors.Is(err, disk.ErrTransient):
		class = classTransient
	case errors.Is(err, disk.ErrPermanent):
		class = classPermanent
	}
	msg := err.Error()
	body := make([]byte, 1+len(msg))
	body[0] = class
	copy(body[1:], msg)
	return body
}

// decodeErr rebuilds a classified error from an stErr body.
func decodeErr(body []byte) error {
	if len(body) < 1 {
		return fmt.Errorf("%w: empty error body", ErrBadFrame)
	}
	msg := string(body[1:])
	switch body[0] {
	case classTransient:
		return fmt.Errorf("pagesvc: %s: %w", msg, disk.ErrTransient)
	case classPermanent:
		return fmt.Errorf("pagesvc: %s: %w", msg, disk.ErrPermanent)
	case classFenced:
		// Fenced is permanent: the request is from a superseded view of
		// the fleet and retrying it verbatim can never succeed.
		return fmt.Errorf("pagesvc: %s: %w: %w", msg, ErrFenced, disk.ErrPermanent)
	default:
		return fmt.Errorf("pagesvc: remote error: %s", msg)
	}
}

// encodePromote builds an opPromote body: the epoch to adopt, the
// applied-LSN floor the server must have reached, and the mode.
func encodePromote(epoch, minLSN uint64, writable bool) []byte {
	body := make([]byte, 17)
	binary.LittleEndian.PutUint64(body[0:], epoch)
	binary.LittleEndian.PutUint64(body[8:], minLSN)
	if writable {
		body[16] = promoteWritable
	}
	return body
}

// decodePromote parses an opPromote body.
func decodePromote(body []byte) (epoch, minLSN uint64, writable bool, err error) {
	if len(body) != 17 {
		return 0, 0, false, fmt.Errorf("%w: %d-byte promote body", ErrBadFrame, len(body))
	}
	if body[16] > promoteWritable {
		return 0, 0, false, fmt.Errorf("%w: promote mode %d", ErrBadFrame, body[16])
	}
	return binary.LittleEndian.Uint64(body[0:]),
		binary.LittleEndian.Uint64(body[8:]),
		body[16] == promoteWritable, nil
}

// netErr wraps a connection-level failure (dial, write, read, timeout)
// as transient: the page is fine, the path to it is not, so the access
// is worth retrying — possibly against a different endpoint.
func netErr(op string, err error) error {
	return fmt.Errorf("pagesvc: %s: %v: %w", op, err, disk.ErrTransient)
}

// appendStreamRecord appends the frame of one Follow record to dst.
func appendStreamRecord(dst []byte, reqID, lsn uint64, page disk.PageID, img []byte) []byte {
	dst = appendResponseHdr(dst, stStream, reqID, 16+len(img))
	dst = binary.LittleEndian.AppendUint64(dst, lsn)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(page))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(img)))
	return append(dst, img...)
}

// decodeStreamRecord parses one Follow record body.
func decodeStreamRecord(body []byte) (lsn uint64, page disk.PageID, img []byte, err error) {
	if len(body) < 16 {
		return 0, 0, nil, fmt.Errorf("%w: %d-byte stream record", ErrBadFrame, len(body))
	}
	lsn = binary.LittleEndian.Uint64(body[0:])
	page = disk.PageID(binary.LittleEndian.Uint32(body[8:]))
	n := binary.LittleEndian.Uint32(body[12:])
	if int(n) != len(body)-16 {
		return 0, 0, nil, fmt.Errorf("%w: stream record length %d != %d", ErrBadFrame, n, len(body)-16)
	}
	return lsn, page, body[16:], nil
}

// deltaHdrSize is a Follow delta body's LSN, page, prev LSN and offset.
const deltaHdrSize = 22

// appendDeltaRecord appends the frame of one Follow delta record to dst.
func appendDeltaRecord(dst []byte, reqID uint64, rec wal.Record) []byte {
	dst = appendResponseHdr(dst, stDelta, reqID, deltaHdrSize+len(rec.Img))
	dst = binary.LittleEndian.AppendUint64(dst, rec.LSN)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rec.Page))
	dst = binary.LittleEndian.AppendUint64(dst, rec.Prev)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(rec.Off))
	return append(dst, rec.Img...)
}

// decodeDeltaRecord parses one Follow delta body. Its bytes alias body;
// wal.ApplyRecord checks that they fit the page.
func decodeDeltaRecord(body []byte) (wal.Record, error) {
	if len(body) < deltaHdrSize {
		return wal.Record{}, fmt.Errorf("%w: %d-byte stream delta", ErrBadFrame, len(body))
	}
	return wal.Record{
		Kind: wal.RecDelta,
		LSN:  binary.LittleEndian.Uint64(body[0:]),
		Page: disk.PageID(binary.LittleEndian.Uint32(body[8:])),
		Prev: binary.LittleEndian.Uint64(body[12:]),
		Off:  int(binary.LittleEndian.Uint16(body[20:])),
		Img:  body[deltaHdrSize:],
	}, nil
}
