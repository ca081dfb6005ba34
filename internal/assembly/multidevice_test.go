package assembly_test

import (
	"slices"
	"testing"

	"revelation/internal/assembly"
	"revelation/internal/disk"
	"revelation/internal/gen"
	"revelation/internal/object"
	"revelation/internal/shard"
	"revelation/internal/volcano"
)

// buildStriped generates an unclustered database striped over n
// simulated devices.
func buildStriped(t testing.TB, objects, n int) (*gen.Database, *disk.Striped) {
	t.Helper()
	var devs []disk.Device
	for i := 0; i < n; i++ {
		devs = append(devs, disk.New(0))
	}
	striped, err := disk.NewStriped(devs, 8)
	if err != nil {
		t.Fatal(err)
	}
	db, err := gen.Build(gen.Config{
		NumComplexObjects: objects,
		Clustering:        gen.Unclustered,
		Seed:              41,
		Device:            striped,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, striped
}

func TestAssemblyOnStripedDevice(t *testing.T) {
	db, striped := buildStriped(t, 300, 4)
	op := assembly.New(volcano.FromOIDs(db.Roots), db.Store, db.Template,
		assembly.Options{Window: 25, Scheduler: assembly.Elevator})
	out := drainAssembly(t, op)
	if len(out) != 300 {
		t.Fatalf("assembled %d", len(out))
	}
	for _, inst := range out {
		verifyTree(t, db, inst)
	}
	// All four arms carried traffic.
	for i, d := range striped.Devices() {
		if d.Stats().Reads == 0 {
			t.Errorf("device %d idle", i)
		}
	}
}

func TestMultiElevatorBeatsGlobalElevatorOnStripes(t *testing.T) {
	db, striped := buildStriped(t, 600, 4)

	run := func(sched assembly.Scheduler, kind assembly.SchedulerKind) int64 {
		if err := db.Pool.EvictAll(); err != nil {
			t.Fatal(err)
		}
		striped.ResetStats()
		striped.ResetHead()
		op := assembly.New(volcano.FromOIDs(db.Roots), db.Store, db.Template, assembly.Options{
			Window:          50,
			Scheduler:       kind,
			CustomScheduler: sched,
		})
		out := drainAssembly(t, op)
		if len(out) != 600 {
			t.Fatalf("assembled %d", len(out))
		}
		for _, inst := range out {
			verifyTree(t, db, inst)
		}
		return striped.Stats().SeekReads
	}

	global := run(nil, assembly.Elevator)
	multi := run(assembly.NewMultiElevator(4, striped.DeviceOf), 0)
	naive := run(nil, assembly.DepthFirst)

	// Each arm sweeps from its own head instead of being dragged along by
	// one global sweep: less total seek, and far below object-at-a-time.
	if multi >= global {
		t.Errorf("multi-elevator total seek %d not below the global elevator's %d", multi, global)
	}
	if multi*3 > naive {
		t.Errorf("multi-elevator %d not well below object-at-a-time %d", multi, naive)
	}
}

// TestOneLaneIsTheGlobalElevator: with one arm, a lane elevator that
// sweeps from the arm's head is the paper's SCAN. Over a one-device
// stripe and a one-member router it seeks, reads and emits exactly what
// the global elevator does.
func TestOneLaneIsTheGlobalElevator(t *testing.T) {
	striped, err := disk.NewStriped([]disk.Device{disk.New(0)}, 8)
	if err != nil {
		t.Fatal(err)
	}
	router, err := shard.New(shard.Config{Members: []shard.Member{{Name: "m0", Primary: disk.New(0)}}})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	cases := []struct {
		name string
		dev  disk.Device
		lane func() assembly.Scheduler
	}{
		{"striped", striped, func() assembly.Scheduler { return assembly.NewMultiElevator(1, striped.DeviceOf) }},
		{"router", router, func() assembly.Scheduler { return assembly.NewShardElevator(1, router.ShardOf) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db, err := gen.Build(gen.Config{NumComplexObjects: 300, Clustering: gen.Unclustered, Seed: 41, Device: c.dev})
			if err != nil {
				t.Fatal(err)
			}
			run := func(sched assembly.Scheduler) (disk.Stats, []object.OID) {
				if err := db.Pool.EvictAll(); err != nil {
					t.Fatal(err)
				}
				c.dev.ResetStats()
				c.dev.ResetHead()
				op := assembly.New(volcano.FromOIDs(db.Roots), db.Store, db.Template,
					assembly.Options{Window: 50, Scheduler: assembly.Elevator, CustomScheduler: sched})
				var order []object.OID
				for _, inst := range drainAssembly(t, op) {
					order = append(order, inst.Object.OID)
				}
				return c.dev.Stats(), order
			}
			global, globalOrder := run(nil)
			lane, laneOrder := run(c.lane())
			if lane.SeekReads != global.SeekReads || lane.Reads != global.Reads {
				t.Errorf("one lane: %d reads, %d seek pages; global elevator: %d reads, %d seek pages",
					lane.Reads, lane.SeekReads, global.Reads, global.SeekReads)
			}
			if !slices.Equal(laneOrder, globalOrder) {
				t.Error("one lane emits in another order than the global elevator")
			}
		})
	}
}

func TestMultiElevatorCorrectAcrossWindows(t *testing.T) {
	db, striped := buildStriped(t, 200, 3)
	for _, w := range []int{1, 10, 60} {
		if err := db.Pool.EvictAll(); err != nil {
			t.Fatal(err)
		}
		op := assembly.New(volcano.FromOIDs(db.Roots), db.Store, db.Template, assembly.Options{
			Window:          w,
			CustomScheduler: assembly.NewMultiElevator(3, striped.DeviceOf),
		})
		items, err := volcano.Drain(nil, op)
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		if len(items) != 200 {
			t.Fatalf("w=%d: assembled %d", w, len(items))
		}
	}
}

func TestMultiElevatorName(t *testing.T) {
	m := assembly.NewMultiElevator(4, func(disk.PageID) int { return 0 })
	if m.Name() != "multi-elevator(4)" {
		t.Errorf("Name = %q", m.Name())
	}
	if m.Len() != 0 {
		t.Errorf("Len = %d", m.Len())
	}
	if m.Next(0) != nil {
		t.Error("empty Next returned a ref")
	}
}
