package wal

// The crash-point sweep: the central durability test. A deterministic
// workload (the heap calls object.Store makes: inserts placed on a
// chosen extent page through InsertAt and same-length updates through
// Update, whose deltas Pool.UnfixRange logs, committed in groups by WAL
// syncs) runs over a data device and a log device that share one crash
// point. A disarmed run counts the W page writes the workload issues;
// the sweep then crashes a fresh copy of the workload at every write
// ordinal k = 1..W, both cleanly (the k-th write completes, then the
// machine dies) and torn (the k-th write lands only a sector prefix),
// revives the devices, recovers, and verifies:
//
//   - every data page passes checksum verification after recovery;
//   - every heap page is structurally sound;
//   - the heap holds every key at most once, and its records are
//     exactly the state after some prefix of the workload's operations
//     that reaches at least the last completed Sync: every committed
//     record is present with its exact payload, and nothing appears
//     that a later operation wrote while an earlier one is missing;
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

// crashOp is one workload operation: it sets key's record to payload.
type crashOp struct {
	key     uint64
	payload string
}

// crashState is what survives the crash for the verifier: the heap's
// extent, every operation the workload started, and how many of them
// the last completed Sync made durable.
type crashState struct {
	heapFirst disk.PageID
	history   []crashOp
	synced    int
	syncs     int
	crashed   bool
}

// runCrashWorkload drives the seeded workload over the given devices
// until it completes or the crash point fires. Any error other than a
// crash is a real bug and is returned; a crash returns the state as of
// the crash with crashed set.
func runCrashWorkload(dataDev, walDev disk.Device, ops int) (*crashState, error) {
	st := &crashState{}
	rids := map[uint64]heap.RID{}
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
	sync := func() error {
		if err := w.Sync(); err != nil {
			return err
		}
		st.syncs++
		st.synced = len(st.history)
		return nil
	}
	pool := buffer.New(dataDev, crashPoolSize)
	pool.SetWAL(w)
	hf, err := heap.Create(pool, crashHeapPages)
	if err != nil {
		return fail(err)
	}
	st.heapFirst = hf.First()
	// Schema commit: the empty extent becomes durable, so any later
	// crash recovers to at least this state.
	if err := sync(); err != nil {
		return fail(err)
	}

	for i := 0; i < ops; i++ {
		if i%4 == 3 {
			// Rewrite an existing record in place with a bumped version.
			key := uint64(i-3) + 1
			versions[key]++
			payload := fmt.Sprintf("rec-%06d-v%02d", key, versions[key])
			st.history = append(st.history, crashOp{key, payload})
			if err := hf.Update(rids[key], len(payload), func(rec []byte) { copy(rec, payload) }); err != nil {
				return fail(err)
			}
		} else {
			// Spread the inserts over the extent, as placement does.
			key := uint64(i) + 1
			payload := fmt.Sprintf("rec-%06d-v%02d", key, 0)
			st.history = append(st.history, crashOp{key, payload})
			rid, err := hf.InsertAt(int(key%crashHeapPages), []byte(payload))
			if err != nil {
				return fail(err)
			}
			rids[key] = rid
		}
		if i%8 == 7 {
			// Group commit: everything appended so far becomes durable.
			if err := sync(); err != nil {
				return fail(err)
			}
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
	if err := sync(); err != nil {
		return fail(err)
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

// recordKey parses the key out of a workload record, rec-KKKKKK-vVV.
func recordKey(rec []byte) (uint64, bool) {
	if len(rec) != len("rec-000000-v00") {
		return 0, false
	}
	key, err := strconv.ParseUint(string(rec[4:10]), 10, 64)
	return key, err == nil
}

// prefixOf returns the smallest j >= st.synced such that got is exactly
// the key→payload state after the first j operations, or -1 if none is.
func prefixOf(got map[uint64]string, st *crashState) int {
	want := map[uint64]string{}
	for j := 0; j <= len(st.history); j++ {
		if j > 0 {
			op := st.history[j-1]
			want[op.key] = op.payload
		}
		if j < st.synced || len(want) != len(got) {
			continue
		}
		same := true
		for k, v := range want {
			if got[k] != v {
				same = false
				break
			}
		}
		if same {
			return j
		}
	}
	return -1
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
		t.Fatalf("%s: post-recovery scan: %v", tag, err)
	}
	if len(postBad) != 0 {
		t.Fatalf("%s: %d pages fail checksums or slot directories after recovery (%v); %s", tag, len(postBad), postBad, res)
	}

	// A crash before the schema commit recovers to an empty or partial
	// extent: its written pages must verify (checked above), but nothing
	// was committed.
	if st.syncs < 1 {
		return len(preBad)
	}
	// Every page of the committed extent is a sound heap page: an
	// all-zero page, whose format recovery lost, fails Validate.
	buf := make([]byte, rig.data.PageSize())
	for pid := st.heapFirst; pid < st.heapFirst+crashHeapPages; pid++ {
		if err := rig.data.ReadPage(pid, buf); err != nil {
			t.Fatalf("%s: read page %d after recovery: %v", tag, pid, err)
		}
		if p := page.Wrap(buf); p.Validate() != nil || p.Kind() != heap.KindHeap {
			t.Fatalf("%s: page %d after recovery: kind %#x, %v; %s", tag, pid, p.Kind(), p.Validate(), res)
		}
	}
	pool := buffer.New(rig.data, 16)
	hf := heap.Open(pool, st.heapFirst, crashHeapPages)
	got := map[uint64]string{}
	var bad error
	err = hf.Scan(func(rid heap.RID, rec []byte) bool {
		key, ok := recordKey(rec)
		switch {
		case !ok:
			bad = fmt.Errorf("record %v = %q carries no key", rid, rec)
		case got[key] != "":
			bad = fmt.Errorf("key %d twice: %q and %q at %v", key, got[key], rec, rid)
		default:
			got[key] = string(rec)
		}
		return bad == nil
	})
	if err == nil {
		err = bad
	}
	if err != nil {
		t.Fatalf("%s: scan after recovery: %v; %s", tag, err, res)
	}
	if prefixOf(got, st) < 0 {
		t.Fatalf("%s: no prefix of at least %d of %d ops matches the recovered heap's %d records; %s",
			tag, st.synced, len(st.history), len(got), res)
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
	t.Logf("workload: %d ops, %d syncs, W=%d write points", ops, st.syncs, writes)

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
