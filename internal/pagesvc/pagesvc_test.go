package pagesvc

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"revelation/internal/disk"
	"revelation/internal/leakcheck"
	"revelation/internal/metrics"
	"revelation/internal/shard"
	"revelation/internal/trace"
)

// startServer serves devs on a loopback port and tears everything down
// with the test.
func startServer(t *testing.T, devs []disk.Device, cfg ServerConfig) (*Server, string) {
	t.Helper()
	s := NewServer(devs, cfg)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

func dialT(t *testing.T, cfg ClientConfig) *Client {
	t.Helper()
	c, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// oneMember puts c behind a one-member shard.Router, as fleet.Dial does
// for a single page service: the client sends each request once, and
// the router above it is the one layer that retries.
func oneMember(t *testing.T, c *Client, cfg shard.Config) *shard.Router {
	t.Helper()
	cfg.Members = []shard.Member{{Name: "s0", Primary: c}}
	r, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestClientRoundtrip(t *testing.T) {
	before := leakcheck.Snapshot()
	sim := disk.New(8)
	ps := sim.PageSize()
	for i := 0; i < 8; i++ {
		img := make([]byte, ps)
		for j := range img {
			img[j] = byte(i)
		}
		if err := sim.WritePage(disk.PageID(i), img); err != nil {
			t.Fatal(err)
		}
	}
	srv, addr := startServer(t, []disk.Device{sim}, ServerConfig{})
	c := dialT(t, ClientConfig{Primary: addr})

	if c.NumPages() != 8 || c.PageSize() != ps {
		t.Fatalf("geometry = %d pages x %d bytes, want 8 x %d", c.NumPages(), c.PageSize(), ps)
	}
	buf := make([]byte, ps)
	for i := 7; i >= 0; i-- {
		if err := c.ReadPage(disk.PageID(i), buf); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if buf[0] != byte(i) || buf[ps-1] != byte(i) {
			t.Fatalf("page %d content = %d", i, buf[0])
		}
	}
	// Seek accounting is local: the head jumped to 7 (distance 7) then
	// walked down one page at a time (7 more).
	st := c.Stats()
	if st.Reads != 8 || st.SeekReads != 14 {
		t.Errorf("stats = %+v, want 8 reads / 14 seek", st)
	}
	if c.Head() != 0 {
		t.Errorf("head = %d, want 0", c.Head())
	}

	// Write through and read back via the server's device directly.
	for j := range buf {
		buf[j] = 0xCC
	}
	if err := c.WritePage(3, buf); err != nil {
		t.Fatal(err)
	}
	direct := make([]byte, ps)
	if err := sim.ReadPage(3, direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct, buf) {
		t.Error("write did not reach the server device")
	}

	// Allocate grows both sides.
	first, err := c.Allocate(3)
	if err != nil {
		t.Fatal(err)
	}
	if first != 8 || c.NumPages() != 11 || sim.NumPages() != 11 {
		t.Errorf("alloc: first=%d client=%d server=%d", first, c.NumPages(), sim.NumPages())
	}

	// Out-of-range and bad-length refused locally.
	if err := c.ReadPage(99, buf); !errors.Is(err, disk.ErrOutOfRange) {
		t.Errorf("read 99 = %v", err)
	}
	if err := c.ReadPage(0, buf[:10]); !errors.Is(err, disk.ErrBadLength) {
		t.Errorf("short read = %v", err)
	}
	c.Close()
	srv.Close()
	leakcheck.CheckWithin(t, before, 2*time.Second)
}

// TestClientDiskTracer pins the client's disk.TracerSetter contract: a
// traced client emits one disk-layer event per logical access with the
// client-side head accounting, so a trace replay reconstructs exactly
// the Stats the client reports — the property the suite's three-way
// verification over the pagesvc backend rests on.
func TestClientDiskTracer(t *testing.T) {
	sim := disk.New(16)
	ps := sim.PageSize()
	_, addr := startServer(t, []disk.Device{sim}, ServerConfig{})
	c := dialT(t, ClientConfig{Primary: addr})

	col := trace.NewCollector()
	disk.AttachTracer(c, trace.New(col))
	reg := metrics.NewRegistry()
	if !disk.RegisterMetrics(c, reg, "remote") {
		t.Fatal("Client exports no disk series")
	}
	buf := make([]byte, ps)
	for _, p := range []disk.PageID{9, 2, 2, 14} {
		if err := c.ReadPage(p, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WritePage(5, buf); err != nil {
		t.Fatal(err)
	}
	disk.AttachTracer(c, nil)
	if err := c.ReadPage(0, buf); err != nil { // untraced
		t.Fatal(err)
	}

	r := trace.ReplayEvents(col.Events())
	if r.Reads != 4 || r.Writes != 1 {
		t.Errorf("replay reads/writes = %d/%d, want 4/1", r.Reads, r.Writes)
	}
	st := c.Stats()
	// The detached read moved the head 5→0 without an event.
	if want := st.SeekReads - 5; r.SeekReads != want {
		t.Errorf("replay SeekReads = %d, want %d", r.SeekReads, want)
	}
	if want := st.SeekTotal - 5; r.SeekTotal != want {
		t.Errorf("replay SeekTotal = %d, want %d", r.SeekTotal, want)
	}
	// The registry leg: the client's arm exports the series every leaf
	// device does, read from the cells Stats reads.
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"asm_disk_reads_total":           st.Reads,
		"asm_disk_writes_total":          st.Writes,
		"asm_disk_seek_pages_total":      st.SeekTotal,
		"asm_disk_read_seek_pages_total": st.SeekReads,
		"asm_disk_max_seek_pages":        st.MaxSeek,
		"asm_disk_head_position":         0,
		"asm_disk_size_pages":            16,
	} {
		if got := snap.Value(name, "dev", "remote"); got != want {
			t.Errorf("registry %s = %d, want %d", name, got, want)
		}
	}
	if st.Reads != 5 || st.Writes != 1 {
		t.Errorf("Stats reads/writes = %d/%d, want 5/1", st.Reads, st.Writes)
	}
}

// TestPipelining issues many concurrent reads over the one shared
// connection; response demultiplexing must route every reply to its
// caller.
func TestPipelining(t *testing.T) {
	sim := disk.New(64)
	ps := sim.PageSize()
	for i := 0; i < 64; i++ {
		img := make([]byte, ps)
		img[0], img[1] = byte(i), byte(i^0x55)
		if err := sim.WritePage(disk.PageID(i), img); err != nil {
			t.Fatal(err)
		}
	}
	_, addr := startServer(t, []disk.Device{sim}, ServerConfig{})
	c := dialT(t, ClientConfig{Primary: addr})

	var wg sync.WaitGroup
	errs := make(chan error, 256)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, ps)
			for i := 0; i < 16; i++ {
				p := disk.PageID((g*16 + i) % 64)
				if err := c.ReadPage(p, buf); err != nil {
					errs <- fmt.Errorf("read %d: %v", p, err)
					return
				}
				if buf[0] != byte(p) || buf[1] != byte(p^0x55) {
					errs <- fmt.Errorf("page %d returned page %d's image", p, buf[0])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := c.Stats().Reads; got != 256 {
		t.Errorf("reads = %d, want 256", got)
	}
}

// TestErrorClassSurvivesWire: remote transient and permanent faults
// arrive as the matching disk sentinel, so retry decisions are the
// same as against a local device.
func TestErrorClassSurvivesWire(t *testing.T) {
	sim := disk.New(8)
	fd := disk.NewFaulty(sim, disk.FaultConfig{})
	_, addr := startServer(t, []disk.Device{fd}, ServerConfig{})
	c := dialT(t, ClientConfig{Primary: addr})
	buf := make([]byte, sim.PageSize())

	fd.SetConfig(disk.FaultConfig{Seed: 3, TransientRate: 1, TransientFailures: 1 << 30})
	err := c.ReadPage(0, buf)
	if !errors.Is(err, disk.ErrTransient) || !disk.Retryable(err) {
		t.Errorf("transient fault over the wire = %v", err)
	}

	fd.SetConfig(disk.FaultConfig{Seed: 3, PermanentRate: 1})
	err = c.ReadPage(0, buf)
	if !errors.Is(err, disk.ErrPermanent) || disk.Retryable(err) {
		t.Errorf("permanent fault over the wire = %v", err)
	}

	// Through a one-member router, the class decides the retries: a
	// fault that clears is absorbed below the caller, two failures then
	// success in three sends, and a permanent fault is sent once.
	r := oneMember(t, c, shard.Config{})
	fd.SetConfig(disk.FaultConfig{Seed: 3, TransientRate: 1, TransientFailures: 2})
	sends := c.sends.Value()
	if err := r.ReadPage(0, buf); err != nil {
		t.Errorf("retryable fault not absorbed: %v", err)
	}
	if got := c.sends.Value() - sends; got != 3 {
		t.Errorf("absorbed fault took %d sends, want 3", got)
	}
	fd.SetConfig(disk.FaultConfig{Seed: 3, PermanentRate: 1})
	sends = c.sends.Value()
	if err := r.ReadPage(0, buf); !errors.Is(err, disk.ErrPermanent) {
		t.Errorf("permanent fault through the router = %v", err)
	}
	if got := c.sends.Value() - sends; got != 1 {
		t.Errorf("permanent fault took %d sends, want 1: it is not retried", got)
	}
}

// TestReconnectAfterServerRestart: a client survives its server going
// away and coming back on the same address, counting the reconnect,
// while a one-member router above it retries the read.
func TestReconnectAfterServerRestart(t *testing.T) {
	sim := disk.New(4)
	buf := make([]byte, sim.PageSize())
	reg := metrics.NewRegistry()
	s1 := NewServer([]disk.Device{sim}, ServerConfig{})
	addr, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := dialT(t, ClientConfig{Primary: addr, Registry: reg, Timeout: time.Second})
	r := oneMember(t, c, shard.Config{
		Retry: disk.RetryPolicy{MaxAttempts: 20, BaseBackoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond},
	})
	if err := r.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// Restart on the same address while the router retries.
	done := make(chan error, 1)
	go func() { done <- r.ReadPage(1, buf) }()
	time.Sleep(10 * time.Millisecond)
	s2 := NewServer([]disk.Device{sim}, ServerConfig{})
	if _, err := s2.Listen(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer s2.Close()
	if err := <-done; err != nil {
		t.Fatalf("read across restart: %v", err)
	}
	if got := c.reconnects.Value(); got < 1 {
		t.Errorf("reconnects = %d, want >= 1", got)
	}
}

// TestCloseIsFinal: after Close every call returns disk.ErrClosed
// without dialing. A call that silently re-dialed would leave a
// connection, its reader goroutine and the server's per-connection
// goroutine behind with no later Close to reap them.
func TestCloseIsFinal(t *testing.T) {
	sim := disk.New(4)
	_, addr := startServer(t, []disk.Device{sim}, ServerConfig{})
	before := leakcheck.Snapshot()
	c := dialT(t, ClientConfig{Primary: addr})
	buf := make([]byte, c.PageSize())
	if err := c.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	c.Close()
	calls := []struct {
		name string
		call func() error
	}{
		{"AppliedLSN", func() error { _, err := c.AppliedLSN(); return err }},
		{"Ping", c.Ping},
		{"Promote", func() error { return c.Promote(1, 0, false) }},
		{"ReadPage", func() error { return c.ReadPage(0, buf) }},
		{"WritePage", func() error { return c.WritePage(0, buf) }},
		{"Allocate", func() error { _, err := c.Allocate(1); return err }},
	}
	for _, tc := range calls {
		if err := tc.call(); !errors.Is(err, disk.ErrClosed) {
			t.Errorf("%s after Close: err = %v, want disk.ErrClosed", tc.name, err)
		}
	}
	if got := sim.NumPages(); got != 4 {
		t.Errorf("Allocate after Close reached the server: %d pages", got)
	}
	c.Close()
	leakcheck.Check(t, before)
}
