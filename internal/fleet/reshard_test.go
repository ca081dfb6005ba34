package fleet

// The resharding crash-point sweep, in the mold of the WAL sweep: a
// deterministic migration (three members, one joiner, seeded page
// contents) runs with the ownership meta log on a crash-point device.
// A disarmed run counts the W meta-log writes; the sweep then crashes
// a fresh migration at every write ordinal k = 1..W, torn and untorn,
// and verifies after every crash:
//
//   - exactly-one-owner BEFORE recovery: a router over the pre-join
//     member set still serves every page with its golden contents (the
//     copy phase never deletes from the old owner);
//   - the durable cutovers are a subset of the rendezvous-predicted
//     delta, owned by the joiner;
//   - recovery (fresh router + Migrator.Join over the revived meta
//     device) converges: no pending pages, routing equals the pure
//     rendezvous assignment of the enlarged set, and every page —
//     migrated or not — reads back its golden contents through the
//     recovered router.

import (
	"errors"
	"fmt"
	"testing"

	"revelation/internal/disk"
	"revelation/internal/shard"
	"revelation/internal/wal"
)

const (
	sweepPages = 256
	sweepChunk = 16
)

var sweepNames = []string{"alpha", "bravo", "charlie"}

const sweepJoiner = "delta"

// goldenImage fills buf with page p's canonical contents.
func goldenImage(p disk.PageID, buf []byte) {
	for i := range buf {
		buf[i] = byte(p) ^ byte(i*7+13)
	}
}

// buildSweepFleet builds three members with golden contents and a
// router over them.
func buildSweepFleet(t *testing.T) (*shard.Router, []shard.Member) {
	t.Helper()
	ms := make([]shard.Member, len(sweepNames))
	for i, n := range sweepNames {
		dev := disk.New(sweepPages)
		buf := make([]byte, dev.PageSize())
		for p := 0; p < sweepPages; p++ {
			goldenImage(disk.PageID(p), buf)
			if err := dev.WritePage(disk.PageID(p), buf); err != nil {
				t.Fatal(err)
			}
		}
		ms[i] = shard.Member{Name: n, Primary: dev}
	}
	r, err := shard.New(shard.Config{Members: ms, Retry: disk.RetryPolicy{MaxAttempts: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return r, ms
}

// verifyGolden reads every page through the router and compares to the
// canonical contents.
func verifyGolden(t *testing.T, r *shard.Router, label string) {
	t.Helper()
	buf := make([]byte, r.PageSize())
	want := make([]byte, r.PageSize())
	for p := 0; p < sweepPages; p++ {
		if err := r.ReadPage(disk.PageID(p), buf); err != nil {
			t.Fatalf("%s: read page %d: %v", label, p, err)
		}
		goldenImage(disk.PageID(p), want)
		if string(buf) != string(want) {
			t.Fatalf("%s: page %d contents diverged", label, p)
		}
	}
}

// runMigration joins the joiner (on joinerDev — the joining machine's
// own durable disk, which survives a migrator crash) through a
// migrator whose meta log lives on metaDev.
func runMigration(t *testing.T, r *shard.Router, metaDev, joinerDev disk.Device) (int, error) {
	t.Helper()
	mg, err := NewMigrator(MigratorConfig{Router: r, MetaDev: metaDev, ChunkPages: sweepChunk})
	if err != nil {
		// Opening the log can itself hit the crash point's dead device.
		return 0, err
	}
	defer mg.Close()
	return mg.Join(shard.Member{Name: sweepJoiner, Primary: joinerDev})
}

func TestReshardCrashSweep(t *testing.T) {
	delta := predictDelta(t, sweepNames, sweepJoiner, sweepPages)

	// Disarmed run: count the meta-log writes and sanity-check a clean
	// migration.
	probe := disk.NewCrashPoint(0, false, 0)
	metaInner := disk.New(0)
	meta := disk.NewFaulty(metaInner, disk.FaultConfig{})
	meta.SetCrash(probe)
	r, _ := buildSweepFleet(t)
	n, err := runMigration(t, r, meta, disk.New(0))
	if err != nil {
		t.Fatalf("clean migration: %v", err)
	}
	if n != len(delta) {
		t.Fatalf("clean migration moved %d pages, predicted delta is %d", n, len(delta))
	}
	if got := r.PendingPages(); got != 0 {
		t.Fatalf("clean migration left %d pending pages", got)
	}
	verifyGolden(t, r, "clean migration")
	r.Close()
	totalWrites := probe.Writes()
	if totalWrites < 2 {
		t.Fatalf("meta log saw only %d writes — sweep is vacuous", totalWrites)
	}

	for _, torn := range []bool{false, true} {
		for k := int64(1); k <= totalWrites; k++ {
			name := fmt.Sprintf("torn=%v/write=%d", torn, k)

			cp := disk.NewCrashPoint(k, torn, int64(k)*31)
			inner := disk.New(0)
			metaDev := disk.NewFaulty(inner, disk.FaultConfig{})
			metaDev.SetCrash(cp)

			// The joiner's own disk outlives the migrator process: the
			// pages installed before the crash stay installed, which is
			// exactly why a durable cutover may be replayed safely.
			joinerDev := disk.New(0)
			r1, _ := buildSweepFleet(t)
			_, err := runMigration(t, r1, metaDev, joinerDev)
			if err != nil && !errors.Is(err, disk.ErrCrashed) {
				t.Fatalf("%s: migration failed with a non-crash error: %v", name, err)
			}
			// No r1.Close(): the crash is an abrupt machine death, and
			// closing would also close the joiner's (surviving) disk.
			if !cp.Crashed() {
				t.Fatalf("%s: crash point never fired", name)
			}

			// The machine is down. The pre-join fleet must still serve
			// every page (the old owners were never deprived), and the
			// durable cutovers must be a joiner-owned subset of the
			// predicted delta.
			cp.Revive()
			r2, _ := buildSweepFleet(t)
			verifyGolden(t, r2, name+"/pre-recovery")
			recs, err := wal.ScanOwnership(metaDev)
			if err != nil {
				t.Fatalf("%s: scan ownership after crash: %v", name, err)
			}
			durable := 0
			for _, rec := range recs {
				if rec.Owner != sweepJoiner {
					t.Fatalf("%s: ownership record names %q, want %q", name, rec.Owner, sweepJoiner)
				}
				for p := rec.Lo; p < rec.Hi; p++ {
					if delta[p] {
						durable++
					}
				}
			}

			// Recovery: resume the migration over the same meta log.
			mg, err := NewMigrator(MigratorConfig{Router: r2, MetaDev: metaDev, ChunkPages: sweepChunk})
			if err != nil {
				t.Fatalf("%s: reopen migrator: %v", name, err)
			}
			resumed, err := mg.Join(shard.Member{Name: sweepJoiner, Primary: joinerDev})
			if err != nil {
				t.Fatalf("%s: resume: %v", name, err)
			}
			mg.Close()
			if durable+resumed != len(delta) {
				t.Fatalf("%s: %d durable + %d resumed != %d delta pages", name, durable, resumed, len(delta))
			}
			if got := r2.PendingPages(); got != 0 {
				t.Fatalf("%s: recovery left %d pending pages", name, got)
			}

			// Converged: routing is the pure rendezvous assignment of
			// the enlarged set, and every page reads back golden.
			joiner := r2.MemberIndex(sweepJoiner)
			for p := 0; p < sweepPages; p++ {
				id := disk.PageID(p)
				if got, want := r2.ShardOf(id) == joiner, delta[id]; got != want {
					t.Fatalf("%s: page %d routed to joiner=%v, predicted %v", name, p, got, want)
				}
			}
			verifyGolden(t, r2, name+"/post-recovery")
			r2.Close()
		}
	}
}
