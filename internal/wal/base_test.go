package wal

import (
	"bytes"
	"testing"

	"revelation/internal/disk"
	"revelation/internal/page"
)

// TestFreshLogAfterFlushedEpoch is the epoch change a checkpoint makes:
// the data device holds a page flushed under one log's LSNs, and a
// fresh log takes over. The new log's record of the page must win at
// recovery, so its LSNs must continue past the flushed one: the fresh
// log is opened after the old one's durable LSN. (Opened with Open, it
// restarts at LSN 1 and recovery keeps epoch 1's image.)
func TestFreshLogAfterFlushedEpoch(t *testing.T) {
	data := disk.New(1)
	ps := data.PageSize()

	// Epoch 1: page 0 logged five times, synced and flushed (on-disk
	// LSN 5).
	a, err := Open(disk.New(0))
	if err != nil {
		t.Fatal(err)
	}
	var img []byte
	for i := 0; i < 5; i++ {
		img = testImage(t, ps, "epoch 1")
		if _, err := a.Append(0, img); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := data.WritePage(0, img); err != nil {
		t.Fatal(err)
	}

	// Epoch 2: a fresh log with a newer image of page 0.
	walB := disk.New(0)
	b, err := OpenAfter(walB, a.DurableLSN())
	if err != nil {
		t.Fatal(err)
	}
	newer := testImage(t, ps, "epoch 2")
	if lsn, err := b.Append(0, newer); err != nil || lsn != 6 {
		t.Fatalf("first append of the new epoch = LSN %d, %v; want 6", lsn, err)
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}

	res, err := Recover(walB, data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, ps)
	if err := data.ReadPage(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newer) {
		t.Fatalf("page 0 keeps epoch 1's image at LSN %d after %v", page.Wrap(got).LSN(), res)
	}
	if res.Records != 1 || res.Redone != 1 || res.NextLSN != 7 {
		t.Errorf("recover = %v, want 1 record redone, next LSN 7", res)
	}
}

// logBytes reads a log device's pages end to end.
func logBytes(t *testing.T, dev disk.Device) []byte {
	t.Helper()
	buf := make([]byte, dev.PageSize())
	var out []byte
	for p := 0; p < dev.NumPages(); p++ {
		if err := dev.ReadPage(disk.PageID(p), buf); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf...)
	}
	return out
}

// TestOpenAfterKeepsBase: a base is durable on its own, so a log
// reopened with no record after it — by Open, by OpenAfter, by a
// reader, by Recover — still continues past it; a log based at 1 is the
// bytes Open writes; and a log that does not reach the base is refused.
func TestOpenAfterKeepsBase(t *testing.T) {
	ps := disk.DefaultPageSize
	dev := disk.New(0)
	w, err := OpenAfter(dev, 41)
	if err != nil {
		t.Fatal(err)
	}
	if w.DurableLSN() != 41 || w.Tail() != recHdrSize {
		t.Fatalf("fresh log after 41: durable LSN %d, tail %d; want 41, %d", w.DurableLSN(), w.Tail(), recHdrSize)
	}
	for _, reopen := range []func(disk.Device) (*Writer, error){
		Open,
		func(d disk.Device) (*Writer, error) { return OpenAfter(d, 41) },
		func(d disk.Device) (*Writer, error) { return OpenAfter(d, 7) },
	} {
		w2, err := reopen(dev)
		if err != nil {
			t.Fatal(err)
		}
		if w2.AppendedLSN() != 41 || w2.Tail() != recHdrSize {
			t.Fatalf("reopened: appended LSN %d, tail %d; want 41, %d", w2.AppendedLSN(), w2.Tail(), recHdrSize)
		}
	}
	if _, err := OpenAfter(dev, 42); err == nil {
		t.Fatal("OpenAfter(42) resumed a log that ends at LSN 41")
	}
	res, err := Recover(dev, disk.New(0), Options{})
	if err != nil || res.Records != 0 || res.NextLSN != 42 || res.TornTail {
		t.Fatalf("recover of a base alone = %v, %v; want no record, next LSN 42", res, err)
	}
	r := NewReader(dev)
	if rec, err := r.Next(); err != nil || rec.Kind != RecBase || rec.LSN != 41 {
		t.Fatalf("first record = %+v, %v; want the base at 41", rec, err)
	}
	if _, err := r.Next(); err != ErrEndOfLog {
		t.Fatalf("after the base: %v, want end of log", err)
	}

	// Records follow the base, and a log that reaches an LSN resumes
	// after it; one that does not is refused.
	w2, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if lsn, err := w2.Append(3, testImage(t, ps, "after the base")); err != nil || lsn != 42 {
		t.Fatalf("append after the base = LSN %d, %v; want 42", lsn, err)
	}
	if err := w2.Sync(); err != nil {
		t.Fatal(err)
	}
	if w3, err := OpenAfter(dev, 42); err != nil || w3.AppendedLSN() != 42 {
		t.Fatalf("OpenAfter(42) of a log whose last LSN is 42: %v", err)
	}
	if _, err := OpenAfter(dev, 43); err == nil {
		t.Fatal("OpenAfter(43) resumed a log whose last LSN is 42")
	}

	// Based at 1: no base record, the bytes Open writes.
	plain, based := disk.New(0), disk.New(0)
	for i, open := range []func(disk.Device) (*Writer, error){
		Open, func(d disk.Device) (*Writer, error) { return OpenAfter(d, 0) },
	} {
		dev := []disk.Device{plain, based}[i]
		w, err := open(dev)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append(1, testImage(t, ps, "one")); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(logBytes(t, plain), logBytes(t, based)) {
		t.Fatal("a log opened after LSN 0 differs from Open's")
	}
}
