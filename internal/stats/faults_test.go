package stats

import (
	"strings"
	"testing"

	"revelation/internal/assembly"
	"revelation/internal/disk"
	"revelation/internal/gen"
	"revelation/internal/volcano"
)

// TestCollectFaults runs a faulted assembly end to end and checks the
// report agrees with every layer's own counters.
func TestCollectFaults(t *testing.T) {
	fd := disk.NewFaulty(disk.New(0), disk.FaultConfig{})
	db, err := gen.Build(gen.Config{
		NumComplexObjects: 80,
		Clustering:        gen.Unclustered,
		Seed:              7,
		Device:            fd,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	fd.SetConfig(disk.FaultConfig{
		Seed:              21,
		TransientRate:     0.05,
		TransientFailures: 1,
		PermanentRate:     0.01,
	})

	items := make([]volcano.Item, len(db.Roots))
	for i, root := range db.Roots {
		items[i] = root
	}
	op := assembly.New(volcano.NewSlice(items), db.Store, db.Template, assembly.Options{
		Window:      16,
		Scheduler:   assembly.Elevator,
		FaultPolicy: assembly.RetryFaults,
	})
	if _, err := volcano.Count(op); err != nil {
		t.Fatalf("faulted run: %v", err)
	}

	st := op.Stats()
	rep := CollectFaults(fd, st)
	if rep.Device != fd.FaultStats() {
		t.Errorf("Device = %+v, want %+v", rep.Device, fd.FaultStats())
	}
	if rep.Device.Transient == 0 {
		t.Error("no transient faults injected — test is vacuous")
	}
	if rep.Assembled != st.Assembled || rep.Skipped != st.Skipped {
		t.Errorf("objects: report %d/%d, operator %d/%d", rep.Assembled, rep.Skipped, st.Assembled, st.Skipped)
	}
	if rep.FaultRetries != st.FaultRetries || rep.FaultRetries == 0 {
		t.Errorf("FaultRetries = %d, operator says %d", rep.FaultRetries, st.FaultRetries)
	}
	if rep.Assembled+rep.Skipped != len(db.Roots) {
		t.Errorf("finished %d complex objects, want %d", rep.Assembled+rep.Skipped, len(db.Roots))
	}
	if got, want := rep.LossRate(), float64(rep.Skipped)/float64(len(db.Roots)); got != want {
		t.Errorf("LossRate = %v, want %v", got, want)
	}
	for _, frag := range []string{"assembled", "quarantined", "transient", "operator"} {
		if !strings.Contains(rep.String(), frag) {
			t.Errorf("String() missing %q: %s", frag, rep)
		}
	}
}

// TestCollectFaultsNilLayers: an absent injector contributes zeroes,
// not panics.
func TestCollectFaultsNilLayers(t *testing.T) {
	rep := CollectFaults(nil, assembly.Stats{Assembled: 3, Skipped: 1})
	if rep.Device != (disk.FaultStats{}) {
		t.Errorf("nil layers leaked counters: %+v", rep)
	}
	if rep.LossRate() != 0.25 {
		t.Errorf("LossRate = %v, want 0.25", rep.LossRate())
	}
	if (FaultReport{}).LossRate() != 0 {
		t.Error("empty report LossRate != 0")
	}
}
