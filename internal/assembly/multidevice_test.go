package assembly_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"revelation/internal/assembly"
	"revelation/internal/disk"
	"revelation/internal/gen"
	"revelation/internal/metrics"
	"revelation/internal/object"
	"revelation/internal/qtrace"
	"revelation/internal/shard"
	"revelation/internal/volcano"
)

// buildStriped generates an unclustered database striped over n
// simulated devices, which it returns beside the stripe.
func buildStriped(t testing.TB, objects, n int) (*gen.Database, *disk.Striped, []*disk.Sim) {
	t.Helper()
	sims := make([]*disk.Sim, n)
	devs := make([]disk.Device, n)
	for i := range sims {
		sims[i] = disk.New(0)
		devs[i] = sims[i]
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
	return db, striped, sims
}

// buildRouted generates an unclustered database on a shard router over
// n simulated devices, which it returns beside it.
func buildRouted(t testing.TB, objects, n int) (*gen.Database, []*disk.Sim) {
	t.Helper()
	sims := make([]*disk.Sim, n)
	members := make([]shard.Member, n)
	for i := range sims {
		sims[i] = disk.New(0)
		members[i] = shard.Member{Name: fmt.Sprintf("m%d", i), Primary: sims[i]}
	}
	router, err := shard.New(shard.Config{Members: members})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	db, err := gen.Build(gen.Config{
		NumComplexObjects: objects,
		Clustering:        gen.Unclustered,
		Seed:              41,
		Device:            router,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, sims
}

func TestAssemblyOnStripedDevice(t *testing.T) {
	db, _, sims := buildStriped(t, 300, 4)
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
	for i, d := range sims {
		if d.Stats().Reads == 0 {
			t.Errorf("device %d idle", i)
		}
	}
}

func TestMultiElevatorBeatsGlobalElevatorOnStripes(t *testing.T) {
	db, striped, _ := buildStriped(t, 600, 4)

	run := func(kind assembly.SchedulerKind) int64 {
		if err := db.Pool.EvictAll(); err != nil {
			t.Fatal(err)
		}
		striped.ResetStats()
		striped.ResetHead()
		op := assembly.New(volcano.FromOIDs(db.Roots), db.Store, db.Template, assembly.Options{
			Window:    50,
			Scheduler: kind,
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

	global := run(assembly.GlobalElevator)
	multi := run(assembly.Elevator)
	naive := run(assembly.DepthFirst)

	// Each arm sweeps from its own head instead of being dragged along by
	// one global sweep: less total seek, and far below object-at-a-time.
	if multi >= global {
		t.Errorf("multi-elevator total seek %d not below the global elevator's %d", multi, global)
	}
	if multi*3 > naive {
		t.Errorf("multi-elevator %d not well below object-at-a-time %d", multi, naive)
	}
}

// armsOnly shows a device's arms but hides its runs, so that the lane
// elevator Open builds over it reads page by page.
type armsOnly struct {
	disk.Device
	disk.Arms
}

// TestOneLaneIsTheGlobalElevator: with one arm, a lane elevator that
// sweeps from the arm's head is the paper's SCAN. Over a one-device
// stripe and a one-member router (its runs hidden, which the lane
// elevator would prefetch) it seeks, reads and emits exactly what the
// global elevator does.
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
	}{
		{"striped", striped},
		{"router", armsOnly{router, router}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db, err := gen.Build(gen.Config{NumComplexObjects: 300, Clustering: gen.Unclustered, Seed: 41, Device: c.dev})
			if err != nil {
				t.Fatal(err)
			}
			run := func(kind assembly.SchedulerKind) (disk.Stats, []object.OID) {
				if err := db.Pool.EvictAll(); err != nil {
					t.Fatal(err)
				}
				c.dev.ResetStats()
				c.dev.ResetHead()
				op := assembly.New(volcano.FromOIDs(db.Roots), db.Store, db.Template,
					assembly.Options{Window: 50, Scheduler: kind})
				var order []object.OID
				for _, inst := range drainAssembly(t, op) {
					order = append(order, inst.Object.OID)
				}
				return c.dev.Stats(), order
			}
			global, globalOrder := run(assembly.GlobalElevator)
			lane, laneOrder := run(assembly.Elevator)
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
	db, _, _ := buildStriped(t, 200, 3)
	for _, w := range []int{1, 10, 60} {
		if err := db.Pool.EvictAll(); err != nil {
			t.Fatal(err)
		}
		op := assembly.New(volcano.FromOIDs(db.Roots), db.Store, db.Template, assembly.Options{
			Window:    w,
			Scheduler: assembly.Elevator,
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
	db, _, _ := buildStriped(t, 50, 4)
	op := assembly.New(volcano.FromOIDs(db.Roots), db.Store, db.Template, assembly.Options{Scheduler: assembly.Elevator})
	if label, _ := op.PlanNode(); !strings.HasPrefix(label, "assembly(multi-elevator(4), ") {
		t.Errorf("plan node %q", label)
	}
	m := assembly.NewShardElevator(4, func(disk.PageID) int { return 0 })
	if m.Len() != 0 {
		t.Errorf("Len = %d", m.Len())
	}
	if m.Next(0) != nil {
		t.Error("empty Next returned a ref")
	}
}

// TestElevatorTakesTheDevicesArms: Open builds the elevator the pool's
// device calls for, and Explain and the metrics policy label name it —
// the one sweep over a single arm, a lane per arm over a device that
// names its arms (a multi-elevator over stripes, a shard-elevator over a
// router), the one sweep again where GlobalElevator asks for it. The
// lanes win over PredicateFirst, which a query with a node predicate
// sets. Only the router's lanes are prefetched: a traced query over it
// opens a span per shard lane, and one over stripes none.
func TestElevatorTakesTheDevicesArms(t *testing.T) {
	stripes := func() disk.Device {
		s, err := disk.NewStriped([]disk.Device{disk.New(0), disk.New(0), disk.New(0)}, 8)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	fleet := func() disk.Device {
		r, err := shard.New(shard.Config{Members: []shard.Member{{Name: "m0", Primary: disk.New(0)}, {Name: "m1", Primary: disk.New(0)}}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		return r
	}
	for _, c := range []struct {
		name      string
		dev       func() disk.Device
		kind      assembly.SchedulerKind
		predFirst bool
		policy    string
		prefetch  bool
	}{
		{"one arm", func() disk.Device { return disk.New(0) }, assembly.Elevator, false, "elevator", false},
		{"one arm, predicate first", func() disk.Device { return disk.New(0) }, assembly.Elevator, true, "predicate-first/elevator", false},
		{"stripes", stripes, assembly.Elevator, false, "multi-elevator(3)", false},
		{"stripes, predicate first", stripes, assembly.Elevator, true, "multi-elevator(3)", false},
		{"stripes, global", stripes, assembly.GlobalElevator, false, "global-elevator", false},
		{"router", fleet, assembly.Elevator, false, "shard-elevator(2)", true},
		{"router, predicate first", fleet, assembly.Elevator, true, "shard-elevator(2)", true},
		{"router, global", fleet, assembly.GlobalElevator, false, "global-elevator", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			db, err := gen.Build(gen.Config{NumComplexObjects: 60, Clustering: gen.Unclustered, Seed: 43, BufferPages: 64, Device: c.dev()})
			if err != nil {
				t.Fatal(err)
			}
			reg := metrics.NewRegistry()
			op := assembly.New(volcano.FromOIDs(db.Roots), db.Store, db.Template,
				assembly.Options{Window: 20, Scheduler: c.kind, PredicateFirst: c.predFirst, Metrics: reg})
			if label, _ := op.PlanNode(); !strings.HasPrefix(label, "assembly("+c.policy+", ") {
				t.Errorf("plan node %q, want policy %s", label, c.policy)
			}
			tr, root := qtrace.NewCollector(4).Begin("query")
			items, err := volcano.Drain(qtrace.With(context.Background(), root), op)
			if err != nil || len(items) != len(db.Roots) {
				t.Fatalf("assembled %d of %d: %v", len(items), len(db.Roots), err)
			}
			if op.Policy() != c.policy {
				t.Errorf("Policy() = %s, want %s", op.Policy(), c.policy)
			}
			if n := reg.Snapshot().Value("asm_assembly_assembled_total", "policy", c.policy); n != int64(len(items)) {
				t.Errorf("policy %s booked %d assembled, want %d", c.policy, n, len(items))
			}
			lanes := 0
			for _, sp := range tr.Spans() {
				if strings.HasPrefix(sp.Name(), "shard") {
					lanes++
				}
			}
			if prefetch := lanes > 0; prefetch != c.prefetch {
				t.Errorf("%d lane spans: prefetched %v, want %v", lanes, prefetch, c.prefetch)
			}
		})
	}
}
