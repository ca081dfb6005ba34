package disk_test

import (
	"errors"
	"fmt"
	"testing"

	"revelation/internal/disk"
	"revelation/internal/pagesvc"
	"revelation/internal/shard"
)

// sentinels are the disk errors a member can return to a page request.
var sentinels = []error{
	disk.ErrTransient, disk.ErrPermanent, disk.ErrOutOfRange,
	disk.ErrClosed, disk.ErrBadLength, disk.ErrCrashed,
}

// TestSentinelsCrossTheWire raises each disk sentinel at a member and
// asks errors.Is of every sentinel about what the caller gets: reading
// the member directly, through a pagesvc.Client, and through a
// one-member shard.Router over that client. All three must answer
// alike, so code that branches on a sentinel sees the same fault
// whether the device is local or across the wire.
func TestSentinelsCrossTheWire(t *testing.T) {
	const pages, size = 8, 512
	read := func(p disk.PageID, n int) func(disk.Device) error {
		return func(dev disk.Device) error { return dev.ReadPage(p, make([]byte, n)) }
	}
	fault := func(sentinel error) func(*testing.T, *disk.Sim, *disk.Faulty) {
		return func(_ *testing.T, sim *disk.Sim, _ *disk.Faulty) {
			sim.SetFault(func(p disk.PageID, _ bool) error { return fmt.Errorf("%w: page %d", sentinel, p) })
		}
	}
	cases := []struct {
		name  string
		arm   func(*testing.T, *disk.Sim, *disk.Faulty) // makes the member fail
		raise func(disk.Device) error
		want  error
	}{
		{"transient", fault(disk.ErrTransient), read(1, size), disk.ErrTransient},
		{"permanent", fault(disk.ErrPermanent), read(1, size), disk.ErrPermanent},
		{"out of range", nil, read(pages, size), disk.ErrOutOfRange},
		{"closed", func(_ *testing.T, _ *disk.Sim, f *disk.Faulty) { f.Close() }, read(1, size), disk.ErrClosed},
		{"bad length", nil, read(1, size-1), disk.ErrBadLength},
		{"crashed", func(t *testing.T, _ *disk.Sim, f *disk.Faulty) {
			// The first write completes; every access after it fails.
			f.CrashAfter(1, false, 0)
			if err := f.WritePage(0, make([]byte, size)); err != nil {
				t.Fatal(err)
			}
		}, read(1, size), disk.ErrCrashed},
	}
	// Each stack reaches its member's device; the member is built and
	// reachable before it is made to fail.
	stacks := []struct {
		name string
		over func(t *testing.T, member disk.Device) disk.Device
	}{
		{"local", func(t *testing.T, member disk.Device) disk.Device { return member }},
		{"client", dialMember},
		{"router", func(t *testing.T, member disk.Device) disk.Device {
			r, err := shard.New(shard.Config{Members: []shard.Member{{Name: "m", Primary: dialMember(t, member)}}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			return r
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var local []bool
			for _, st := range stacks {
				sim := disk.NewSim(size, 0)
				if _, err := sim.Allocate(pages); err != nil {
					t.Fatal(err)
				}
				member := disk.NewFaulty(sim, disk.FaultConfig{})
				dev := st.over(t, member)
				if c.arm != nil {
					c.arm(t, sim, member)
				}
				err := c.raise(dev)
				is := make([]bool, len(sentinels))
				for i, s := range sentinels {
					is[i] = errors.Is(err, s)
				}
				if st.name == "local" {
					if !errors.Is(err, c.want) {
						t.Fatalf("local: %v, want %v", err, c.want)
					}
					local = is
					continue
				}
				for i, s := range sentinels {
					if is[i] != local[i] {
						t.Errorf("%s: errors.Is(%v, %v) = %v, locally %v", st.name, err, s, is[i], local[i])
					}
				}
			}
		})
	}
}

// dialMember serves member on a loopback page server and returns a
// client of it that makes one attempt per call.
func dialMember(t *testing.T, member disk.Device) disk.Device {
	srv := pagesvc.NewServer([]disk.Device{member}, pagesvc.ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := pagesvc.Dial(pagesvc.ClientConfig{Primary: addr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}
