package gen

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"revelation/internal/buffer"
	"revelation/internal/disk"
	"revelation/internal/heap"
	"revelation/internal/object"
	"revelation/internal/pagesvc"
	"revelation/internal/shard"
)

// poolLoad is the loader Build used before heap.Load, kept as the model:
// heap.Create formats every page through the pool, then Store.PutAt
// places the objects page by page, registering each RID as it goes.
// Build's EvictAll writes back what the pool still holds.
func poolLoad(pool *buffer.Pool, byPage [][]*object.Object) (*heap.File, *object.MapLocator, error) {
	file, err := heap.Create(pool, len(byPage))
	if err != nil {
		return nil, nil, err
	}
	loc := object.NewMapLocator()
	store := object.NewStore(file, loc, nil)
	for pg, objs := range byPage {
		for _, o := range objs {
			if _, err := store.PutAt(o, pg); err != nil {
				return nil, nil, fmt.Errorf("gen: place %v on page %d: %w", o.OID, pg, err)
			}
		}
	}
	return file, loc, nil
}

// loopbackFleet is a two-member page-service fleet on loopback TCP, as
// its router; it is torn down with the test.
func loopbackFleet(tb testing.TB) disk.Device {
	return fleetOver(tb, disk.New(0), disk.New(0))
}

// fleetOver is a page-service fleet on loopback TCP with a member over
// each of devs, named s0, s1, … in order, as its router; it is torn down
// with the test.
func fleetOver(tb testing.TB, devs ...disk.Device) *shard.Router {
	members := make([]shard.Member, len(devs))
	for i := range members {
		srv := pagesvc.NewServer([]disk.Device{devs[i]}, pagesvc.ServerConfig{})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { srv.Close() })
		c, err := pagesvc.Dial(pagesvc.ClientConfig{Primary: addr, Dev: pagesvc.DataDev})
		if err != nil {
			tb.Fatal(err)
		}
		members[i] = shard.Member{Name: fmt.Sprintf("s%d", i), Primary: c}
	}
	r, err := shard.New(shard.Config{Members: members})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { r.Close() }) // and the members' clients
	return r
}

// TestLoadMatchesPoolLoad builds every database of the grid twice, with
// heap.Load and with the pool path it replaced, each on a fresh device,
// and requires the same device bytes, page for page, the same RID for
// every OID, the same extent and OID range, and a pool with nothing
// counted.
func TestLoadMatchesPoolLoad(t *testing.T) {
	devices := []struct {
		name string
		new  func(testing.TB) disk.Device
	}{
		{"sim", func(testing.TB) disk.Device { return disk.New(0) }},
		{"fleet", loopbackFleet},
	}
	for _, dv := range devices {
		for _, cl := range []Clustering{Unclustered, InterObject, IntraObject} {
			for _, sharing := range []float64{0, 0.25} {
				for _, fanouts := range [][]int{{2, 2}, {2, 2, 2, 2}, {8, 4}} {
					for _, extra := range []int{0, 17} {
						for _, frames := range []int{40, 64, 0} {
							cfg := Config{
								NumComplexObjects: 20, Fanouts: fanouts, Clustering: cl,
								Sharing: sharing, Seed: 5, RegionPages: 4,
								ExtraPages: extra, BufferPages: frames,
							}
							name := fmt.Sprintf("%s/%v/share%v/%v/extra%d/frames%d", dv.name, cl, sharing, fanouts, extra, frames)
							cfg.Device = dv.new(t)
							got, err := Build(cfg)
							if err != nil {
								t.Fatalf("%s: load: %v", name, err)
							}
							cfg.Device = dv.new(t)
							want, err := build(cfg, poolLoad)
							if err != nil {
								t.Fatalf("%s: pool load: %v", name, err)
							}
							if err := sameDatabase(got, want); err != nil {
								t.Fatalf("%s: %v", name, err)
							}
						}
					}
				}
			}
		}
	}
}

// sameDatabase compares two built databases as TestLoadMatchesPoolLoad
// requires, after checking got's pool is as Build must leave it.
func sameDatabase(got, want *Database) error {
	if s := got.Pool.Stats(); s != (buffer.Stats{}) {
		return fmt.Errorf("pool stats after the build %+v, want zero", s)
	}
	if got.DataPages != want.DataPages || got.Store.File.NumPages() != want.Store.File.NumPages() || got.NextOID != want.NextOID {
		return fmt.Errorf("DataPages %d, NumPages %d, NextOID %d; pool path %d, %d, %d",
			got.DataPages, got.Store.File.NumPages(), got.NextOID, want.DataPages, want.Store.File.NumPages(), want.NextOID)
	}
	n := got.Device.NumPages()
	if m := want.Device.NumPages(); n != m {
		return fmt.Errorf("device of %d pages, pool path %d", n, m)
	}
	a, b := make([]byte, got.Device.PageSize()), make([]byte, want.Device.PageSize())
	for id := disk.PageID(0); int(id) < n; id++ {
		if err := got.Device.ReadPage(id, a); err != nil {
			return err
		}
		if err := want.Device.ReadPage(id, b); err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("page %d differs from the pool path's", id)
		}
	}
	for oid := object.OID(1); oid < got.NextOID; oid++ {
		r1, ok1, err1 := got.Store.WhereIs(oid)
		r2, ok2, err2 := want.Store.WhereIs(oid)
		if r1 != r2 || ok1 != ok2 || err1 != nil || err2 != nil {
			return fmt.Errorf("oid %d at %v %v %v, pool path %v %v %v", oid, r1, ok1, err1, r2, ok2, err2)
		}
	}
	return nil
}

// TestBuildWriteFault fails the first, a middle and the last of the
// extent's page writes, on a Sim and on one member of a loopback fleet,
// where the page is one of a run that crossed the wire whole; Build must
// return an error naming that page.
func TestBuildWriteFault(t *testing.T) {
	cfg := Config{NumComplexObjects: 50, Seed: 3}
	clean, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := clean.Store.File.NumPages()
	for _, k := range []int{1, n / 2, n} {
		dev := disk.NewFaulty(disk.New(0), disk.FaultConfig{})
		dev.CrashAfter(int64(k), true, 1)
		cfg.Device = dev
		_, err := Build(cfg)
		page := clean.Store.File.First() + disk.PageID(k-1)
		if !errors.Is(err, disk.ErrCrashed) || !strings.Contains(err.Error(), fmt.Sprintf("load page %d:", page)) {
			t.Errorf("write %d of %d failed: err = %v, want ErrCrashed naming page %d", k, n, err, page)
		}
	}

	// Member s0's pages of the extent, in order: the k-th write that
	// reaches its device is the k-th of them. (The crash crosses the
	// wire as a remote error, which keeps its text but not its
	// sentinel.)
	var owned []disk.PageID
	probe := fleetOver(t, disk.New(0), disk.New(0))
	for p := clean.Store.File.First(); int(p) < int(clean.Store.File.First())+n; p++ {
		if probe.ShardOf(p) == 0 {
			owned = append(owned, p)
		}
	}
	for _, k := range []int{1, len(owned) / 2, len(owned)} {
		dev := disk.NewFaulty(disk.New(0), disk.FaultConfig{})
		dev.CrashAfter(int64(k), true, 1)
		cfg.Device = fleetOver(t, dev, disk.New(0))
		_, err := Build(cfg)
		page := owned[k-1]
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("load page %d:", page)) || !strings.Contains(err.Error(), "crashed") {
			t.Errorf("fleet: write %d of member s0's %d failed: err = %v, want a crash naming page %d", k, len(owned), err, page)
		}
	}
}

// countingDevice counts the page reads and writes asked of its device:
// the round trips a client makes. A run of writes its device takes whole
// (a disk.RunWriter: over a fleet, one frame per owner) counts as one;
// one it takes page by page counts a trip a page.
type countingDevice struct {
	disk.Device
	trips int
}

func (d *countingDevice) WritePages(ids []disk.PageID, bufs [][]byte, errs []error) {
	if _, ok := d.Device.(disk.RunWriter); ok {
		d.trips++
	} else {
		d.trips += len(ids)
	}
	disk.WritePages(d.Device, ids, bufs, errs)
}

func (d *countingDevice) ReadPage(p disk.PageID, buf []byte) error {
	d.trips++
	return d.Device.ReadPage(p, buf)
}

func (d *countingDevice) WritePage(p disk.PageID, buf []byte) error {
	d.trips++
	return d.Device.WritePage(p, buf)
}

// BenchmarkBuild builds the scan-local database (an 800-frame pool over
// a Sim) and the scan-sharded one (a 64-frame pool over a two-member
// loopback fleet) with heap.Load and with the pool path, and reports the
// device round trips per extent page.
func BenchmarkBuild(b *testing.B) {
	shapes := []struct {
		name string
		cfg  Config
		dev  func(testing.TB) disk.Device
	}{
		{"scan-local", Config{NumComplexObjects: 4000, BufferPages: 800}, func(testing.TB) disk.Device { return disk.New(0) }},
		{"scan-sharded", Config{NumComplexObjects: 2000, BufferPages: 64}, loopbackFleet},
	}
	loaders := []struct {
		name string
		load loader
	}{{"load", load}, {"pool", poolLoad}}
	for _, sh := range shapes {
		for _, ld := range loaders {
			b.Run(sh.name+"/"+ld.name, func(b *testing.B) {
				trips, pages := 0, 0
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					dev := &countingDevice{Device: sh.dev(b)}
					cfg := sh.cfg
					cfg.Device, cfg.Seed = dev, 7
					b.StartTimer()
					db, err := build(cfg, ld.load)
					if err != nil {
						b.Fatal(err)
					}
					trips, pages = trips+dev.trips, pages+db.Store.File.NumPages()
				}
				b.ReportMetric(float64(trips)/float64(pages), "trips/page")
			})
		}
	}
}
