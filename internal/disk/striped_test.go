package disk

import (
	"errors"
	"testing"
)

func newStriped(t *testing.T, n, unit int) (*Striped, []*Sim) {
	t.Helper()
	var devs []Device
	var sims []*Sim
	for i := 0; i < n; i++ {
		d := New(0)
		devs = append(devs, d)
		sims = append(sims, d)
	}
	s, err := NewStriped(devs, unit)
	if err != nil {
		t.Fatal(err)
	}
	return s, sims
}

func TestStripedRouting(t *testing.T) {
	s, _ := newStriped(t, 3, 2)
	cases := []struct {
		global PageID
		dev    int
		local  PageID
	}{
		{0, 0, 0}, {1, 0, 1},
		{2, 1, 0}, {3, 1, 1},
		{4, 2, 0}, {5, 2, 1},
		{6, 0, 2}, {7, 0, 3},
		{8, 1, 2},
		{12, 0, 4},
	}
	for _, c := range cases {
		dev, local := s.route(c.global)
		if dev != c.dev || local != c.local {
			t.Errorf("route(%d) = (%d, %d), want (%d, %d)", c.global, dev, local, c.dev, c.local)
		}
		if s.ShardOf(c.global) != c.dev {
			t.Errorf("ShardOf(%d) = %d, want %d", c.global, s.ShardOf(c.global), c.dev)
		}
	}
}

func TestStripedReadWriteRoundTrip(t *testing.T) {
	s, sims := newStriped(t, 4, 1)
	if _, err := s.Allocate(32); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, s.PageSize())
	for p := PageID(0); p < 32; p++ {
		buf[0] = byte(p)
		if err := s.WritePage(p, buf); err != nil {
			t.Fatalf("write %d: %v", p, err)
		}
	}
	out := make([]byte, s.PageSize())
	for p := PageID(0); p < 32; p++ {
		if err := s.ReadPage(p, out); err != nil {
			t.Fatalf("read %d: %v", p, err)
		}
		if out[0] != byte(p) {
			t.Fatalf("page %d holds %d", p, out[0])
		}
	}
	// Each of the 4 sub-devices should hold 8 local pages.
	for i, sim := range sims {
		if sim.NumPages() != 8 {
			t.Errorf("device %d has %d pages, want 8", i, sim.NumPages())
		}
	}
}

func TestStripedAllocateUneven(t *testing.T) {
	s, sims := newStriped(t, 3, 2)
	if _, err := s.Allocate(7); err != nil { // 7 pages: dev0 gets 2+1, dev1 2, dev2 2
		t.Fatal(err)
	}
	want := []int{3, 2, 2}
	for i, sim := range sims {
		if sim.NumPages() != want[i] {
			t.Errorf("device %d has %d local pages, want %d", i, sim.NumPages(), want[i])
		}
	}
	buf := make([]byte, s.PageSize())
	if err := s.ReadPage(6, buf); err != nil {
		t.Errorf("read last page: %v", err)
	}
	if err := s.ReadPage(7, buf); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read past end err = %v", err)
	}
}

func TestStripedStatsAggregate(t *testing.T) {
	s, sims := newStriped(t, 2, 1)
	if _, err := s.Allocate(20); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, s.PageSize())
	// Pages 0,2,4,... on dev0 (locals 0,1,2,...); odd on dev1.
	for _, p := range []PageID{0, 4, 8, 1, 9} {
		if err := s.ReadPage(p, buf); err != nil {
			t.Fatal(err)
		}
	}
	// dev0 locals: 0,2,4 -> seeks 0+2+2 = 4; dev1 locals: 0,4 -> 0+4 = 4.
	if got := sims[0].Stats().SeekReads; got != 4 {
		t.Errorf("dev0 seeks = %d, want 4", got)
	}
	if got := sims[1].Stats().SeekReads; got != 4 {
		t.Errorf("dev1 seeks = %d, want 4", got)
	}
	agg := s.Stats()
	if agg.Reads != 5 || agg.SeekReads != 8 {
		t.Errorf("aggregate = %+v", agg)
	}
	s.ResetStats()
	if s.Stats().Reads != 0 {
		t.Error("ResetStats did not propagate")
	}
}

func TestStripedHeadTracksLastGlobal(t *testing.T) {
	s, _ := newStriped(t, 2, 1)
	if _, err := s.Allocate(8); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, s.PageSize())
	if err := s.ReadPage(5, buf); err != nil {
		t.Fatal(err)
	}
	if s.Head() != 5 {
		t.Errorf("Head = %d", s.Head())
	}
	s.ResetHead()
	if s.Head() != 0 {
		t.Errorf("Head after reset = %d", s.Head())
	}
}

func TestStripedClose(t *testing.T) {
	s, _ := newStriped(t, 2, 1)
	if _, err := s.Allocate(2); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, s.PageSize())
	if err := s.ReadPage(0, buf); !errors.Is(err, ErrClosed) {
		t.Errorf("read after close err = %v", err)
	}
}

func TestStripedValidation(t *testing.T) {
	if _, err := NewStriped(nil, 1); err == nil {
		t.Error("empty device list accepted")
	}
	a := NewSim(512, 0)
	b := NewSim(1024, 0)
	if _, err := NewStriped([]Device{a, b}, 1); err == nil {
		t.Error("mismatched page sizes accepted")
	}
}

// TestStripedHeadOf: HeadOf maps each arm's local head back to the
// global page the arm last read, for every width and stripe unit, and
// there is no arm outside the sub-devices.
func TestStripedHeadOf(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for unit := 1; unit <= 4; unit++ {
			s, _ := newStriped(t, n, unit)
			if _, err := s.Allocate(3*n*unit + 1); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, s.PageSize())
			for p := PageID(0); int(p) < s.NumPages(); p++ {
				if err := s.ReadPage(p, buf); err != nil {
					t.Fatal(err)
				}
				if h, ok := s.HeadOf(s.ShardOf(p)); h != p || !ok {
					t.Fatalf("%d devices, unit %d: after a read of page %d, HeadOf(%d) = %d, %v", n, unit, p, s.ShardOf(p), h, ok)
				}
			}
			for _, i := range []int{-1, n, n + 1} {
				if _, ok := s.HeadOf(i); ok {
					t.Errorf("%d devices: HeadOf(%d) reports an arm", n, i)
				}
			}
		}
	}
}
