package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	c.Reset()
	if got := c.Value(); got != 0 {
		t.Errorf("counter after reset = %d, want 0", got)
	}

	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
	g.SetMax(2)
	if got := g.Value(); got != 4 {
		t.Errorf("SetMax lowered gauge to %d", got)
	}
	g.SetMax(9)
	if got := g.Value(); got != 9 {
		t.Errorf("SetMax = %d, want 9", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", "policy", "elevator")
	b := r.Counter("x_total", "x", "policy", "elevator")
	if a != b {
		t.Error("same name+labels returned distinct cells")
	}
	c := r.Counter("x_total", "x", "policy", "depth-first")
	if a == c {
		t.Error("distinct labels shared a cell")
	}
	a.Add(2)
	c.Inc()
	s := r.Snapshot()
	if got := s.Value("x_total", "policy", "elevator"); got != 2 {
		t.Errorf("elevator = %d, want 2", got)
	}
	if got := s.Sum("x_total"); got != 3 {
		t.Errorf("sum = %d, want 3", got)
	}
}

func TestRegistryAttachReplaces(t *testing.T) {
	r := NewRegistry()
	first := &Counter{}
	first.Add(10)
	r.Attach("y_total", "y", first, "dev", "0")
	second := &Counter{}
	second.Add(3)
	r.Attach("y_total", "y", second, "dev", "0")
	if got := r.Snapshot().Value("y_total", "dev", "0"); got != 3 {
		t.Errorf("after replace = %d, want 3", got)
	}
}

func TestNilRegistryIsDisabled(t *testing.T) {
	var r *Registry
	c := r.Counter("z_total", "z")
	c.Inc() // must not panic
	r.Attach("z_total", "z", &Counter{})
	if s := r.Snapshot(); len(s) != 0 {
		t.Errorf("nil registry snapshot has %d samples", len(s))
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil || sb.Len() != 0 {
		t.Errorf("nil registry exposition: %q, %v", sb.String(), err)
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reads_total", "reads")
	c.Add(5)
	before := r.Snapshot()
	c.Add(7)
	d := r.Snapshot().Delta(before)
	if got := d.Value("reads_total"); got != 7 {
		t.Errorf("delta = %d, want 7", got)
	}
}

// TestConcurrentScrape exercises the documented contract under -race:
// cells updated from many goroutines while snapshots and expositions
// run concurrently.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c", "worker", "w")
	g := r.Gauge("g_depth", "g")
	r.Attach("f_now", "f", GaugeFunc(func() int64 { return g.Value() }))
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
			}
		}()
	}
	for i := 0; i < 20; i++ {
		var sb strings.Builder
		if err := r.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		_ = r.Snapshot()
	}
	wg.Wait()
	if got := c.Value(); got != 4000 {
		t.Errorf("counter = %d, want 4000", got)
	}
}
