package disk_test

import (
	"path/filepath"
	"sync/atomic"
	"testing"

	"revelation/internal/disk"
	"revelation/internal/pagesvc"
	"revelation/internal/shard"
)

// countingDevice counts the Allocate calls that reach a member.
type countingDevice struct {
	disk.Device
	allocs atomic.Int64
}

func (c *countingDevice) Allocate(n int) (disk.PageID, error) {
	c.allocs.Add(1)
	return c.Device.Allocate(n)
}

func member() *countingDevice { return &countingDevice{Device: disk.NewSim(512, 0)} }

// allocateDevices opens an empty device of every kind. members are the
// devices a composite grows (a decorator has none: what it wraps is the
// device, bounds and all).
var allocateDevices = []struct {
	name string
	open func(t *testing.T) (dev disk.Device, members []*countingDevice)
}{
	{"memory", func(t *testing.T) (disk.Device, []*countingDevice) {
		return disk.NewSim(512, 0), nil
	}},
	{"file", func(t *testing.T) (disk.Device, []*countingDevice) {
		d, err := disk.OpenFile(filepath.Join(t.TempDir(), "dev.db"), 512)
		if err != nil {
			t.Fatal(err)
		}
		return d, nil
	}},
	{"faulty", func(t *testing.T) (disk.Device, []*countingDevice) {
		return disk.NewFaulty(disk.NewSim(512, 0), disk.FaultConfig{}), nil
	}},
	{"striped", func(t *testing.T) (disk.Device, []*countingDevice) {
		ms := []*countingDevice{member(), member()}
		d, err := disk.NewStriped([]disk.Device{ms[0], ms[1]}, 2)
		if err != nil {
			t.Fatal(err)
		}
		return d, ms
	}},
	{"router", func(t *testing.T) (disk.Device, []*countingDevice) {
		ms := []*countingDevice{member(), member()}
		r, err := shard.New(shard.Config{Members: []shard.Member{
			{Name: "a", Primary: ms[0]}, {Name: "b", Primary: ms[1]}}})
		if err != nil {
			t.Fatal(err)
		}
		return r, ms
	}},
	{"client", func(t *testing.T) (disk.Device, []*countingDevice) {
		m := member()
		srv := pagesvc.NewServer([]disk.Device{m}, pagesvc.ServerConfig{})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		c, err := pagesvc.Dial(pagesvc.ClientConfig{Primary: addr})
		if err != nil {
			t.Fatal(err)
		}
		return c, []*countingDevice{m}
	}},
}

// TestAllocateBounds: every Device's Allocate refuses to shrink the
// device and to grow it past the page-id space, and a refused request
// changes nothing — not the device's size, not a member's, and no
// member is asked to grow. (The file copy used to truncate the database
// file on a negative n; Striped and Router shrank their size without
// telling a member; Client put n on the wire as a uint32, where
// -InvalidPage arrived as a growth of one page.)
func TestAllocateBounds(t *testing.T) {
	for _, kind := range allocateDevices {
		t.Run(kind.name, func(t *testing.T) {
			d, members := kind.open(t)
			defer d.Close()
			if first, err := d.Allocate(8); err != nil || first != 0 {
				t.Fatalf("Allocate(8) on an empty device = %d, %v", first, err)
			}
			calls := func() (n int64) {
				for _, m := range members {
					n += m.allocs.Load()
				}
				return n
			}
			for _, c := range []struct {
				name      string
				n         int
				wantErr   bool
				wantFirst disk.PageID
				wantPages int
			}{
				{"negative", -1, true, disk.InvalidPage, 8},
				{"whole device negative", -8, true, disk.InvalidPage, 8},
				{"wraps to one page as a uint32", -int(disk.InvalidPage), true, disk.InvalidPage, 8},
				{"past the page-id space", int(disk.InvalidPage) - 8 + 1, true, disk.InvalidPage, 8},
				{"zero", 0, false, 8, 8},
				{"grow", 3, false, 8, 11},
			} {
				before := calls()
				first, err := d.Allocate(c.n)
				if (err != nil) != c.wantErr || first != c.wantFirst {
					t.Errorf("%s: Allocate(%d) = %d, %v; want first %d, error %v",
						c.name, c.n, first, err, c.wantFirst, c.wantErr)
				}
				if got := d.NumPages(); got != c.wantPages {
					t.Fatalf("%s: %d pages after Allocate(%d), want %d", c.name, got, c.n, c.wantPages)
				}
				if !c.wantErr {
					continue
				}
				if got := calls() - before; got != 0 {
					t.Errorf("%s: the refused Allocate(%d) reached a member %d times", c.name, c.n, got)
				}
				for i, m := range members {
					// Every kind here backs the whole space on each member
					// or its stripe of it; either way no more than 8 pages.
					if got := m.NumPages(); got > 8 {
						t.Errorf("%s: member %d holds %d pages after the refusal", c.name, i, got)
					}
				}
			}
			buf := make([]byte, 512)
			if err := d.ReadPage(10, buf); err != nil {
				t.Errorf("read of the last allocated page after refused allocations: %v", err)
			}
		})
	}
}
