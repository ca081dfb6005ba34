package pagesvc

import (
	"encoding/binary"
	"fmt"
	"io"

	"revelation/internal/disk"
)

// The wire as it was written before frames left in one Write and came
// in through a buffered reader: the length prefix moved on its own, and
// every frame was encoded into, and read into, a fresh slice. Kept as
// the reference the frame tests and the fuzz target compare the
// append*/frameReader path with, byte for byte.

// writeFrame sends one length-prefixed payload.
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one length-prefixed payload.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("%w: %d-byte frame", ErrBadFrame, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// encodeRequest frames a request for the wire: the 26-byte header — op,
// device, request id, query id, epoch — then the body.
func encodeRequest(req request) []byte {
	p := make([]byte, 26+len(req.body))
	p[0] = req.op
	p[1] = req.dev
	binary.LittleEndian.PutUint64(p[2:], req.reqID)
	binary.LittleEndian.PutUint64(p[10:], req.qid)
	binary.LittleEndian.PutUint64(p[18:], req.epoch)
	copy(p[26:], req.body)
	return p
}

// encodeResponse frames a response for the wire.
func encodeResponse(resp response) []byte {
	p := make([]byte, respHdrSize+len(resp.body))
	p[0] = resp.status
	binary.LittleEndian.PutUint64(p[1:], resp.reqID)
	copy(p[respHdrSize:], resp.body)
	return p
}

// encodeStreamRecord frames one Follow record.
func encodeStreamRecord(reqID, lsn uint64, page disk.PageID, img []byte) []byte {
	body := make([]byte, 16+len(img))
	binary.LittleEndian.PutUint64(body[0:], lsn)
	binary.LittleEndian.PutUint32(body[8:], uint32(page))
	binary.LittleEndian.PutUint32(body[12:], uint32(len(img)))
	copy(body[16:], img)
	return encodeResponse(response{status: stStream, reqID: reqID, body: body})
}
