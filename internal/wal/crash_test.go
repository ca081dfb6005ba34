package wal

// The crash-point sweep: the central durability test. A deterministic
// workload (heap inserts and updates indexed by a B+-tree, committed in
// groups by WAL syncs) runs over a data device and a log device that
// share one crash point. A disarmed run counts the W page writes the
// workload issues; the sweep then crashes a fresh copy of the workload
// at every write ordinal k = 1..W, both cleanly (the k-th write
// completes, then the machine dies) and torn (the k-th write lands only
// a sector prefix), revives the devices, recovers, and verifies:
//
//   - every data page passes checksum verification after recovery;
//   - the B+-tree validates its structural invariants;
//   - every record committed by a completed Sync is present: its key
//     resolves through the tree and the heap returns its exact payload;
//   - every heap page is structurally sound;
//   - untorn crashes never corrupt data pages even before recovery,
//     while across the torn half of the sweep at least one crash point
//     leaves a data page that checksum verification demonstrably
//     catches before recovery repairs it.
//
// CRASH_OPS scales the workload (default keeps the sweep inside a
// tier-1 test run; `make crash-test` raises it).

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"testing"

	"revelation/internal/btree"
	"revelation/internal/buffer"
	"revelation/internal/disk"
	"revelation/internal/heap"
	"revelation/internal/page"
)

const (
	crashSeed      = 0x5EED
	crashHeapPages = 12
	crashPoolSize  = 8
)

func packRID(r heap.RID) uint64 {
	return uint64(r.Page)<<16 | uint64(r.Slot)
}

func unpackRID(v uint64) heap.RID {
	return heap.RID{Page: disk.PageID(v >> 16), Slot: page.SlotID(v & 0xFFFF)}
}

// crashState is what survives the crash for the verifier: the layout of
// the structures and the records committed by the last completed Sync.
type crashState struct {
	root      disk.PageID
	heapFirst disk.PageID
	committed map[uint64]string
	syncs     int
	crashed   bool
}

// runCrashWorkload drives the seeded workload over the given devices
// until it completes or the crash point fires. Any error other than a
// crash is a real bug and is returned; a crash returns the state as of
// the last completed Sync with crashed set.
func runCrashWorkload(dataDev, walDev disk.Device, ops int) (*crashState, error) {
	st := &crashState{committed: map[uint64]string{}}
	pending := map[uint64]string{}
	versions := map[uint64]int{}

	fail := func(err error) (*crashState, error) {
		if errors.Is(err, disk.ErrCrashed) {
			st.crashed = true
			return st, nil
		}
		return nil, err
	}

	w, err := Open(walDev)
	if err != nil {
		return fail(err)
	}
	pool := buffer.New(dataDev, crashPoolSize)
	pool.SetWAL(w)
	hf, err := heap.Create(pool, crashHeapPages)
	if err != nil {
		return fail(err)
	}
	st.heapFirst = hf.First()
	tr, err := btree.Create(pool)
	if err != nil {
		return fail(err)
	}
	st.root = tr.Root()
	// Schema commit: the extent and the empty tree become durable, so
	// any later crash recovers to at least this state.
	if err := w.Sync(); err != nil {
		return fail(err)
	}
	st.syncs++

	for i := 0; i < ops; i++ {
		if i%4 == 3 {
			// Rewrite an existing record in place with a bumped version.
			key := uint64(i-3) + 1
			versions[key]++
			payload := fmt.Sprintf("rec-%06d-v%02d", key, versions[key])
			v, ok, err := tr.Get(key)
			if err != nil {
				return fail(err)
			}
			if !ok {
				return nil, fmt.Errorf("workload: key %d vanished before update", key)
			}
			if err := hf.Update(unpackRID(v), []byte(payload)); err != nil {
				return fail(err)
			}
			pending[key] = payload
		} else {
			key := uint64(i) + 1
			payload := fmt.Sprintf("rec-%06d-v%02d", key, 0)
			rid, err := hf.Insert([]byte(payload))
			if err != nil {
				return fail(err)
			}
			if err := tr.Put(key, packRID(rid)); err != nil {
				return fail(err)
			}
			pending[key] = payload
		}
		if i%8 == 7 {
			// Group commit: everything appended so far becomes durable.
			if err := w.Sync(); err != nil {
				return fail(err)
			}
			st.syncs++
			for k, v := range pending {
				st.committed[k] = v
			}
			pending = map[uint64]string{}
		}
		if i%16 == 11 {
			// Push dirty pages to the data device mid-stream so the
			// sweep crosses data writes, not just log writes. The flush
			// path syncs the log first (WAL-before-data).
			if err := pool.FlushAll(); err != nil {
				return fail(err)
			}
		}
	}
	if err := w.Sync(); err != nil {
		return fail(err)
	}
	st.syncs++
	for k, v := range pending {
		st.committed[k] = v
	}
	if err := pool.FlushAll(); err != nil {
		return fail(err)
	}
	if err := pool.Close(); err != nil {
		return fail(err)
	}
	if err := w.Close(); err != nil {
		return fail(err)
	}
	return st, nil
}

// crashRig wires fresh devices behind Faulty wrappers sharing one crash
// point, so the write clock orders data and log writes globally.
type crashRig struct {
	data *disk.Faulty
	wal  *disk.Faulty
	cp   *disk.CrashPoint
}

func newCrashRig(after int64, torn bool) *crashRig {
	cp := disk.NewCrashPoint(after, torn, crashSeed)
	data := disk.NewFaulty(disk.New(0), disk.FaultConfig{})
	wal := disk.NewFaulty(disk.New(0), disk.FaultConfig{})
	data.SetCrash(cp)
	wal.SetCrash(cp)
	return &crashRig{data: data, wal: wal, cp: cp}
}

// verifyRecovered revives the rig, recovers, and runs the full
// post-recovery verification. It returns the number of data pages that
// failed checksum verification BEFORE recovery — the detection signal
// the torn half of the sweep asserts on.
func verifyRecovered(t *testing.T, tag string, rig *crashRig, st *crashState) int {
	t.Helper()
	rig.cp.Revive()

	preBad, err := page.VerifyDevice(rig.data)
	if err != nil {
		t.Fatalf("%s: pre-recovery checksum scan: %v", tag, err)
	}
	res, err := Recover(rig.wal, rig.data, Options{})
	if err != nil {
		t.Fatalf("%s: recover: %v", tag, err)
	}
	postBad, err := page.VerifyDevice(rig.data)
	if err != nil {
		t.Fatalf("%s: post-recovery checksum scan: %v", tag, err)
	}
	if len(postBad) != 0 {
		t.Fatalf("%s: %d pages fail checksums after recovery (%v); %s", tag, len(postBad), postBad, res)
	}

	// A crash before the schema commit recovers to an empty or partial
	// layout: checksums must hold (checked above), but there is no
	// structure to validate and nothing was committed.
	if st.syncs < 1 {
		return len(preBad)
	}
	pool := buffer.New(rig.data, 16)
	tr := btree.Open(pool, st.root)
	if err := tr.Validate(); err != nil {
		t.Fatalf("%s: tree invariants after recovery: %v; %s", tag, err, res)
	}
	hf := heap.Open(pool, st.heapFirst, crashHeapPages)
	if err := hf.Check(); err != nil {
		t.Fatalf("%s: heap check after recovery: %v", tag, err)
	}
	for key, want := range st.committed {
		v, ok, err := tr.Get(key)
		if err != nil {
			t.Fatalf("%s: Get(%d) after recovery: %v", tag, key, err)
		}
		if !ok {
			t.Fatalf("%s: committed key %d missing after recovery; %s", tag, key, res)
		}
		got, err := hf.Read(unpackRID(v))
		if err != nil {
			t.Fatalf("%s: read committed record %d: %v", tag, key, err)
		}
		if string(got) != want {
			t.Fatalf("%s: committed record %d = %q, want %q", tag, key, got, want)
		}
	}
	if err := pool.Close(); err != nil {
		t.Fatalf("%s: close verification pool: %v", tag, err)
	}
	return len(preBad)
}

func crashOps(t *testing.T) int {
	ops := 32
	if s := os.Getenv("CRASH_OPS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("CRASH_OPS=%q: want a positive integer", s)
		}
		ops = n
	}
	return ops
}

// TestCrashPointSweep crashes the workload at every write ordinal, both
// cleanly and torn, and verifies full recovery each time.
func TestCrashPointSweep(t *testing.T) {
	ops := crashOps(t)

	// Disarmed run: learn W, the length of the write sequence, and check
	// the workload itself is sound end to end.
	rig := newCrashRig(0, false)
	st, err := runCrashWorkload(rig.data, rig.wal, ops)
	if err != nil {
		t.Fatal(err)
	}
	if st.crashed {
		t.Fatal("disarmed run crashed")
	}
	writes := rig.cp.Writes()
	if writes < 20 {
		t.Fatalf("workload issued only %d writes; the sweep would be vacuous", writes)
	}
	verifyRecovered(t, "disarmed", rig, st)
	t.Logf("workload: %d ops, %d syncs, %d committed records, W=%d write points",
		ops, st.syncs, len(st.committed), writes)

	tornDetected := 0
	for k := int64(1); k <= writes; k++ {
		for _, torn := range []bool{false, true} {
			tag := fmt.Sprintf("crash@%d/%d torn=%v", k, writes, torn)
			rig := newCrashRig(k, torn)
			st, err := runCrashWorkload(rig.data, rig.wal, ops)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if !st.crashed && k < writes {
				t.Fatalf("%s: workload completed without hitting the crash", tag)
			}
			preBad := verifyRecovered(t, tag, rig, st)
			if torn {
				if preBad > 0 {
					tornDetected++
				}
			} else if preBad > 0 {
				// An untorn crash completes every write it issues, so a
				// data page can be stale but never half-written.
				t.Fatalf("%s: %d data pages fail checksums before recovery after a clean crash", tag, preBad)
			}
		}
	}
	if tornDetected == 0 {
		t.Error("no torn crash point left a checksum-detectable data page: the tear injection never reached the data device")
	}
	t.Logf("sweep: %d crash points x2, torn data pages detected pre-recovery at %d points", writes, tornDetected)
}
