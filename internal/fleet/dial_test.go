package fleet

import (
	"fmt"
	"testing"

	"revelation/internal/disk"
	"revelation/internal/metrics"
	"revelation/internal/pagesvc"
)

// TestDialOneRetryLayer reads, through a fleet.Dial router, the one page
// its member's device always fails transiently, and counts the requests
// that crossed the wire. The router is the only layer that retries: each
// of its attempts is one send, so one routed read sends at most the
// router's MaxAttempts requests.
func TestDialOneRetryLayer(t *testing.T) {
	const bad = disk.PageID(3)
	sim := disk.New(8)
	sim.SetFault(func(p disk.PageID, write bool) error {
		if p == bad && !write {
			return fmt.Errorf("%w: injected", disk.ErrTransient)
		}
		return nil
	})
	srv := pagesvc.NewServer([]disk.Device{sim}, pagesvc.ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := metrics.NewRegistry()
	router, _, _, err := Dial(addr, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	buf := make([]byte, router.PageSize())
	before := reg.Snapshot()
	if err := router.ReadPage(bad, buf); !disk.Retryable(err) {
		t.Fatalf("read of a transiently failing page: %v, want a transient error", err)
	}
	sends := reg.Snapshot().Delta(before).Value("asm_net_sends_total", "dev", "net-s0")
	t.Logf("one routed read of a failing page: %d sends", sends)
	if max := int64(disk.DefaultRetryPolicy.MaxAttempts); sends < 1 || sends > max {
		t.Errorf("one routed read sent %d requests, want 1 to %d (one per router attempt)", sends, max)
	}
}
