package pagesvc

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"revelation/internal/disk"
	"revelation/internal/leakcheck"
	"revelation/internal/metrics"
	"revelation/internal/qtrace"
	"revelation/internal/shard"
	"revelation/internal/trace"
)

// heldRead is a device whose first read waits at the server until the
// test releases it, so the test can act while a request is certainly
// pending at the client.
type heldRead struct {
	disk.Device
	once             sync.Once
	arrived, release chan struct{}
}

func (d *heldRead) ReadPage(p disk.PageID, buf []byte) error {
	d.once.Do(func() {
		close(d.arrived)
		<-d.release
	})
	return d.Device.ReadPage(p, buf)
}

// TestReconnectDeterministicIDsNoDoubleCount severs the primary
// connection in the middle of a concurrent read pipeline, read through
// a one-member router that retries what the sever failed, and checks
// the two properties the reconnect path must preserve:
//
//  1. One request id per attempt: the client never re-sends, so the
//     final id counter equals Dial's info call plus one per logical
//     read plus one per router retry, and every id went out as one
//     send.
//  2. Sends are never double-counted across the accounting legs: the
//     span counters, the client's own counters, the registry, and the
//     trace replay all agree exactly, retries included.
func TestReconnectDeterministicIDsNoDoubleCount(t *testing.T) {
	goroutines := leakcheck.Snapshot()

	const pages = 32
	sim := disk.New(pages)
	buf := make([]byte, sim.PageSize())
	for p := 0; p < pages; p++ {
		for j := range buf {
			buf[j] = byte(p)
		}
		if err := sim.WritePage(disk.PageID(p), buf); err != nil {
			t.Fatal(err)
		}
	}
	held := &heldRead{Device: sim, arrived: make(chan struct{}), release: make(chan struct{})}
	srv := NewServer([]disk.Device{held}, ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg := metrics.NewRegistry()
	col := trace.NewCollector()
	c, err := Dial(ClientConfig{Primary: addr, Dev: DataDev, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A breaker that never opens: an open breaker's attempts send
	// nothing, and this test counts sends.
	r, err := shard.New(shard.Config{
		Members:  []shard.Member{{Name: "s0", Primary: c}},
		Breaker:  shard.BreakerConfig{FailureThreshold: 1 << 20},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both exclude Dial's info round trip.
	c.SetTracer(trace.New(col))
	before := reg.Snapshot()

	qc := qtrace.NewCollector(2)
	qt, root := qc.Begin("reconnect-pipeline")
	ctx := qtrace.With(context.Background(), root)

	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	failures := make(chan error, workers)
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rbuf := make([]byte, c.PageSize())
			<-start
			for i := 0; i < perWorker; i++ {
				p := disk.PageID((w*perWorker + i) % pages)
				if err := r.ReadPageCtx(ctx, p, rbuf); err != nil {
					failures <- err
					return
				}
				if rbuf[0] != byte(p) {
					failures <- errors.New("read returned wrong page image")
					return
				}
			}
		}(w)
	}
	close(start)

	// Kill the live primary connection while a read is certainly in
	// flight: the server holds the first one until the sever has happened.
	// Every pending request gets an error response; the router retries
	// it, a fresh request over the fresh connection.
	<-held.arrived
	c.cmu.Lock()
	cc := c.conn
	c.cmu.Unlock()
	if cc != nil {
		cc.fail(netErr("test", errors.New("injected sever")))
	}
	close(held.release)

	wg.Wait()
	qc.Finish(qt, "ok", nil)
	close(failures)
	for err := range failures {
		t.Fatalf("read failed despite retry policy: %v", err)
	}
	if got := c.reconnects.Value(); got < 1 {
		t.Fatalf("reconnects = %d, want at least 1", got)
	}

	// Property 1: one id per attempt. Dial's info call took id 1; each
	// of the workers*perWorker reads took one more, and so did each of
	// the router's retries. Every id was one send.
	c.mu.Lock()
	lastID := c.reqID
	c.mu.Unlock()
	retries := reg.Snapshot().Value("asm_shard_retries_total")
	if retries < 1 {
		t.Errorf("router retries = %d: the sever failed no read", retries)
	}
	if want := uint64(1 + workers*perWorker + retries); lastID != want {
		t.Errorf("final request id %d, want %d: info, %d reads and %d retries", lastID, want, workers*perWorker, retries)
	}
	if got := c.sends.Value(); uint64(got) != lastID {
		t.Errorf("client sends %d != %d request ids", got, lastID)
	}

	// Property 2: the four send accountings agree. All post-Dial traffic
	// is attributed, so the span total, the registry delta, and the
	// replay all describe the same wire activity.
	total := qt.Total()
	delta := reg.Snapshot().Delta(before)
	rep := trace.ReplayEvents(col.Events())
	if rep.Reconnects != c.reconnects.Value() {
		t.Errorf("replay reconnects %d != client reconnects %d", rep.Reconnects, c.reconnects.Value())
	}
	if got := delta.Value("asm_net_sends_total", "dev", "net0"); got != total.NetSends {
		t.Errorf("span sends %d != registry sends %d", total.NetSends, got)
	}
	if int64(rep.NetSends) != total.NetSends {
		t.Errorf("replay sends %d != span sends %d", rep.NetSends, total.NetSends)
	}
	if c.sends.Value() != 1+total.NetSends { // +1 for Dial's info
		t.Errorf("client sends %d != info + span sends %d", c.sends.Value(), 1+total.NetSends)
	}
	if got := delta.Value("asm_net_recvs_total", "dev", "net0"); got != total.NetRecvs {
		t.Errorf("span recvs %d != registry recvs %d", total.NetRecvs, got)
	}
	if int64(rep.NetRecvs) != total.NetRecvs {
		t.Errorf("replay recvs %d != span recvs %d", rep.NetRecvs, total.NetRecvs)
	}
	// The sever forced at least one retry, so sends must exceed the
	// logical reads — and the replay sees those extra sends too.
	if total.NetSends <= workers*perWorker {
		t.Errorf("sends %d not above %d logical reads: sever produced no retries", total.NetSends, workers*perWorker)
	}

	r.Close()
	srv.Close()
	leakcheck.CheckWithin(t, goroutines, 2*time.Second)
}
