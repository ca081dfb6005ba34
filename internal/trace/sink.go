package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Collector is an in-memory sink: it keeps every event, in order. Tests
// and the replay cross-checks use it.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Emit implements Sink.
func (c *Collector) Emit(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Events returns a snapshot of the collected events.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Writer is a JSONL sink: one event per line, fields in fixed schema
// order, buffered. Errors are sticky — the first write error stops
// further output and is reported by Close (and Err).
type Writer struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	c   io.Closer
	err error
}

// NewWriter wraps w as a JSONL sink. If w is also an io.Closer, Close
// closes it after flushing.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriterSize(w, 1<<16)
	jw := &Writer{bw: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		jw.c = c
	}
	return jw
}

// Emit implements Sink.
func (w *Writer) Emit(e Event) {
	w.mu.Lock()
	if w.err == nil {
		w.err = w.enc.Encode(e)
	}
	w.mu.Unlock()
}

// Close flushes the buffer and closes the underlying writer when it is
// closable, returning the first error encountered over the sink's life.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if ferr := w.bw.Flush(); w.err == nil {
		w.err = ferr
	}
	if w.c != nil {
		if cerr := w.c.Close(); w.err == nil {
			w.err = cerr
		}
	}
	return w.err
}

// ReadAll parses a JSONL event stream back into events. It fails on the
// first malformed line, reporting its line number.
func ReadAll(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return events, nil
}
