package trace_test

import (
	"testing"

	"revelation/internal/assembly"
	"revelation/internal/disk"
	"revelation/internal/gen"
	"revelation/internal/trace"
	"revelation/internal/volcano"
)

// coldStart resets a generated database to the state every benchmark
// run begins from: empty pool, zeroed counters, head parked at 0.
func coldStart(t *testing.T, db *gen.Database) {
	t.Helper()
	if err := db.Pool.EvictAll(); err != nil {
		t.Fatalf("EvictAll: %v", err)
	}
	db.Pool.ResetStats()
	db.Device.ResetStats()
	db.Device.ResetHead()
}

// tracedAssembly runs one assembly pass over db with every layer
// traced into a collector and returns the replay and raw events next
// to the layers' own counters.
func tracedAssembly(t *testing.T, db *gen.Database, opts assembly.Options) (*trace.Replay, []trace.Event, disk.Stats, assembly.Stats) {
	t.Helper()
	col := &trace.Collector{}
	tr := trace.New(col)
	disk.AttachTracer(db.Device, tr)
	db.Pool.SetTracer(tr)
	defer func() {
		disk.AttachTracer(db.Device, nil)
		db.Pool.SetTracer(nil)
	}()

	op := assembly.New(volcano.FromOIDs(db.Roots), db.Store, db.Template, opts)
	n, err := volcano.Count(op)
	if err != nil {
		t.Fatalf("assembly run: %v", err)
	}
	st := op.Stats()
	if n != st.Assembled {
		t.Fatalf("drained %d items but operator assembled %d", n, st.Assembled)
	}
	events := col.Events()
	return trace.ReplayEvents(events), events, db.Device.Stats(), st
}

// TestReplayMatchesStats is the tentpole contract: for every scheduling
// policy, replaying the event trace must reconstruct the device's seek
// accounting and the operator's assembly counters exactly — the same
// equality cmd/asmtrace enforces on recorded benchmark runs.
func TestReplayMatchesStats(t *testing.T) {
	for _, kind := range []assembly.SchedulerKind{
		assembly.DepthFirst, assembly.BreadthFirst, assembly.Elevator,
	} {
		t.Run(kind.String(), func(t *testing.T) {
			db, err := gen.Build(gen.Config{
				NumComplexObjects: 120,
				Clustering:        gen.Unclustered,
				Seed:              91,
			})
			if err != nil {
				t.Fatalf("gen.Build: %v", err)
			}
			coldStart(t, db)
			r, _, dev, st := tracedAssembly(t, db, assembly.Options{Window: 25, Scheduler: kind})

			got := r.Stats()
			want := trace.RunStats{
				Reads:     dev.Reads,
				SeekReads: dev.SeekReads,
				SeekTotal: dev.SeekTotal,
				Assembled: st.Assembled,
				Aborted:   st.Aborted,
				Skipped:   st.Skipped,
				Retries:   st.FaultRetries,
				Stalls:    st.WindowStalls,
			}
			if got != want {
				t.Errorf("replay %+v != live counters %+v", got, want)
			}
			if r.Reads == 0 || r.Assembled != 120 {
				t.Errorf("degenerate run: %d reads, %d assembled", r.Reads, r.Assembled)
			}
			if r.AvgSeekPerRead() != dev.AvgSeekPerRead() {
				t.Errorf("replay avg seek %v != device %v", r.AvgSeekPerRead(), dev.AvgSeekPerRead())
			}
			// The buffer layer must agree too.
			pool := db.Pool.Stats()
			if r.Hits != pool.Hits || r.Misses != pool.Faults {
				t.Errorf("replay hits/misses %d/%d != pool %d/%d", r.Hits, r.Misses, pool.Hits, pool.Faults)
			}
			if r.Evictions != pool.Evictions {
				t.Errorf("replay evictions %d != pool %d", r.Evictions, pool.Evictions)
			}
		})
	}
}

// TestReplayMatchesFaultReport extends the cross-check to a faulty
// device: the replayed fault, retry, quarantine, and stall counts must
// equal what the live layers report — the injector's FaultStats and
// the operator's Stats.
func TestReplayMatchesFaultReport(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy assembly.FaultPolicy
	}{
		{"retry", assembly.RetryFaults},
		{"skip-object", assembly.SkipObject},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Fresh Faulty per policy: FaultStats accumulate for the
			// device's lifetime.
			fd := disk.NewFaulty(disk.New(0), disk.FaultConfig{})
			db, err := gen.Build(gen.Config{
				NumComplexObjects: 120,
				Clustering:        gen.Unclustered,
				Seed:              91,
				Device:            fd,
			})
			if err != nil {
				t.Fatalf("gen.Build: %v", err)
			}
			coldStart(t, db)
			fd.SetConfig(disk.FaultConfig{
				Seed:              7,
				TransientRate:     0.10,
				TransientFailures: 2,
				PermanentRate:     0.01,
			})
			r, _, _, st := tracedAssembly(t, db, assembly.Options{
				Window:      25,
				Scheduler:   assembly.Elevator,
				FaultPolicy: tc.policy,
			})

			faults := fd.FaultStats()
			if r.FaultsTransient != faults.Transient {
				t.Errorf("replay transient faults %d != injector %d", r.FaultsTransient, faults.Transient)
			}
			if r.FaultsPermanent != faults.Permanent {
				t.Errorf("replay permanent faults %d != injector %d", r.FaultsPermanent, faults.Permanent)
			}
			if r.Retries != st.FaultRetries {
				t.Errorf("replay retries %d != operator %d", r.Retries, st.FaultRetries)
			}
			if r.Quarantined != st.Skipped {
				t.Errorf("replay quarantined %d != operator %d", r.Quarantined, st.Skipped)
			}
			if r.Assembled != st.Assembled {
				t.Errorf("replay assembled %d != operator %d", r.Assembled, st.Assembled)
			}
			if r.Stalls != st.WindowStalls {
				t.Errorf("replay stalls %d != operator %d", r.Stalls, st.WindowStalls)
			}
			if r.Assembled+r.Quarantined != 120 {
				t.Errorf("assembled %d + quarantined %d != 120 admitted", r.Assembled, r.Quarantined)
			}
			// Under the skip policy some objects must actually be lost to
			// the injected permanent faults for the test to mean anything.
			if tc.policy == assembly.SkipObject && r.Quarantined == 0 {
				t.Error("skip-object run quarantined nothing; injector config too weak")
			}
			if tc.policy == assembly.RetryFaults && r.Retries == 0 {
				t.Error("retry run retried nothing; injector config too weak")
			}
		})
	}
}
