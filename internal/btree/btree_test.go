package btree

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"revelation/internal/buffer"
	"revelation/internal/disk"
)

func newTree(t *testing.T, frames int) *Tree {
	t.Helper()
	d := disk.New(0)
	pool := buffer.New(d, frames)
	tr, err := Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestEmptyTree(t *testing.T) {
	tr := newTree(t, 8)
	if _, ok, err := tr.Get(1); err != nil || ok {
		t.Errorf("Get on empty = (%v, %v)", ok, err)
	}
	if n, err := tr.Len(); err != nil || n != 0 {
		t.Errorf("Len = (%d, %v)", n, err)
	}
	if h, err := tr.Height(); err != nil || h != 1 {
		t.Errorf("Height = (%d, %v)", h, err)
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestInsertGetSmall(t *testing.T) {
	tr := newTree(t, 8)
	for _, k := range []uint64{5, 1, 9, 3, 7} {
		if err := tr.Insert(k, k*10); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	for _, k := range []uint64{5, 1, 9, 3, 7} {
		v, ok, err := tr.Get(k)
		if err != nil || !ok || v != k*10 {
			t.Errorf("Get(%d) = (%d, %v, %v)", k, v, ok, err)
		}
	}
	if _, ok, _ := tr.Get(4); ok {
		t.Error("Get(4) found a missing key")
	}
}

func TestInsertDuplicate(t *testing.T) {
	tr := newTree(t, 8)
	if err := tr.Insert(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(1, 20); !errors.Is(err, ErrKeyExists) {
		t.Errorf("duplicate Insert err = %v, want ErrKeyExists", err)
	}
	if err := tr.Put(1, 30); err != nil {
		t.Errorf("Put overwrite: %v", err)
	}
	v, _, _ := tr.Get(1)
	if v != 30 {
		t.Errorf("value after Put = %d, want 30", v)
	}
}

func TestSplitsAndDepth(t *testing.T) {
	tr := newTree(t, 64)
	const n = 10000
	for i := 0; i < n; i++ {
		if err := tr.Insert(uint64(i), uint64(i)); err != nil {
			t.Fatalf("Insert(%d): %v", i, err)
		}
	}
	if got, _ := tr.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	h, _ := tr.Height()
	if h < 3 {
		t.Errorf("Height = %d, expected a deep tree for %d keys", h, n)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for i := 0; i < n; i += 37 {
		v, ok, err := tr.Get(uint64(i))
		if err != nil || !ok || v != uint64(i) {
			t.Fatalf("Get(%d) = (%d, %v, %v)", i, v, ok, err)
		}
	}
}

func TestRootStableAcrossSplits(t *testing.T) {
	tr := newTree(t, 64)
	root := tr.Root()
	for i := 0; i < 5000; i++ {
		if err := tr.Insert(uint64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Root() != root {
		t.Errorf("root moved: %d -> %d", root, tr.Root())
	}
}

func TestDescendingInsert(t *testing.T) {
	tr := newTree(t, 64)
	const n = 5000
	for i := n - 1; i >= 0; i-- {
		if err := tr.Insert(uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	var keys []uint64
	if err := tr.Scan(0, ^uint64(0), func(k, v uint64) bool {
		keys = append(keys, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != n {
		t.Fatalf("scan saw %d keys, want %d", len(keys), n)
	}
	for i, k := range keys {
		if k != uint64(i) {
			t.Fatalf("keys[%d] = %d", i, k)
		}
	}
}

func TestScanRange(t *testing.T) {
	tr := newTree(t, 64)
	for i := 0; i < 1000; i += 2 { // even keys only
		if err := tr.Insert(uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	if err := tr.Scan(101, 111, func(k, v uint64) bool {
		got = append(got, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []uint64{102, 104, 106, 108, 110}
	if len(got) != len(want) {
		t.Fatalf("Scan(101,111) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Scan(101,111) = %v, want %v", got, want)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	tr := newTree(t, 64)
	for i := 0; i < 500; i++ {
		if err := tr.Insert(uint64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	if err := tr.Scan(0, ^uint64(0), func(k, v uint64) bool {
		n++
		return n < 10
	}); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestDeleteSimple(t *testing.T) {
	tr := newTree(t, 8)
	for _, k := range []uint64{1, 2, 3} {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	ok, err := tr.Delete(2)
	if err != nil || !ok {
		t.Fatalf("Delete(2) = (%v, %v)", ok, err)
	}
	if _, found, _ := tr.Get(2); found {
		t.Error("key 2 still present")
	}
	ok, err = tr.Delete(2)
	if err != nil || ok {
		t.Errorf("second Delete(2) = (%v, %v), want (false, nil)", ok, err)
	}
	if n, _ := tr.Len(); n != 2 {
		t.Errorf("Len = %d, want 2", n)
	}
}

func TestDeleteEverything(t *testing.T) {
	tr := newTree(t, 64)
	const n = 3000
	for i := 0; i < n; i++ {
		if err := tr.Insert(uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		ok, err := tr.Delete(uint64(i))
		if err != nil || !ok {
			t.Fatalf("Delete(%d) = (%v, %v)", i, ok, err)
		}
	}
	if got, _ := tr.Len(); got != 0 {
		t.Errorf("Len after delete-all = %d", got)
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate after delete-all: %v", err)
	}
	// Tree must still be usable.
	if err := tr.Insert(42, 42); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := tr.Get(42); !ok || v != 42 {
		t.Error("tree unusable after delete-all")
	}
}

func TestDeepTreeWithTinyNodes(t *testing.T) {
	// Force four-entry nodes so every code path (splits, borrows,
	// merges, root collapse) runs within a few hundred keys.
	tr := newTree(t, 64)
	tr.setCapacity(4, 4)
	const n = 300
	rng := rand.New(rand.NewSource(2))
	perm := rng.Perm(n)
	for _, i := range perm {
		if err := tr.Insert(uint64(i), uint64(i*3)); err != nil {
			t.Fatalf("Insert(%d): %v", i, err)
		}
		if i%50 == 0 {
			if err := tr.Validate(); err != nil {
				t.Fatalf("Validate during inserts: %v", err)
			}
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	h, _ := tr.Height()
	if h < 4 {
		t.Errorf("Height = %d, want >= 4 with capacity 4", h)
	}
	// Delete in a different random order, validating periodically.
	perm = rng.Perm(n)
	for j, i := range perm {
		ok, err := tr.Delete(uint64(i))
		if err != nil || !ok {
			t.Fatalf("Delete(%d) = (%v, %v)", i, ok, err)
		}
		if j%25 == 0 {
			if err := tr.Validate(); err != nil {
				t.Fatalf("Validate during deletes (after %d): %v", j+1, err)
			}
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Oracle test: a long random workload of puts, deletes, and lookups
// must match a Go map exactly, and scans must match sorted keys.
func TestRandomWorkloadAgainstMapOracle(t *testing.T) {
	tr := newTree(t, 128)
	tr.setCapacity(6, 6)
	oracle := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(99))
	const keySpace = 2000
	for step := 0; step < 20000; step++ {
		k := uint64(rng.Intn(keySpace))
		switch rng.Intn(3) {
		case 0: // put
			v := rng.Uint64()
			if err := tr.Put(k, v); err != nil {
				t.Fatalf("step %d Put(%d): %v", step, k, err)
			}
			oracle[k] = v
		case 1: // delete
			ok, err := tr.Delete(k)
			if err != nil {
				t.Fatalf("step %d Delete(%d): %v", step, k, err)
			}
			_, want := oracle[k]
			if ok != want {
				t.Fatalf("step %d Delete(%d) = %v, oracle %v", step, k, ok, want)
			}
			delete(oracle, k)
		default: // get
			v, ok, err := tr.Get(k)
			if err != nil {
				t.Fatalf("step %d Get(%d): %v", step, k, err)
			}
			want, wantOK := oracle[k]
			if ok != wantOK || (ok && v != want) {
				t.Fatalf("step %d Get(%d) = (%d,%v), oracle (%d,%v)", step, k, v, ok, want, wantOK)
			}
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("final Validate: %v", err)
	}
	var wantKeys []uint64
	for k := range oracle {
		wantKeys = append(wantKeys, k)
	}
	sort.Slice(wantKeys, func(i, j int) bool { return wantKeys[i] < wantKeys[j] })
	var gotKeys []uint64
	if err := tr.Scan(0, ^uint64(0), func(k, v uint64) bool {
		gotKeys = append(gotKeys, k)
		if oracle[k] != v {
			t.Fatalf("scan value mismatch at %d", k)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("scan saw %d keys, oracle has %d", len(gotKeys), len(wantKeys))
	}
	for i := range wantKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Fatalf("scan key %d = %d, want %d", i, gotKeys[i], wantKeys[i])
		}
	}
}

// Property: inserting any set of distinct keys yields a tree whose scan
// returns exactly the sorted set.
func TestInsertScanProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		tr := newTreeQuick()
		seen := map[uint64]bool{}
		var want []uint64
		for _, r := range raw {
			k := uint64(r)
			if seen[k] {
				continue
			}
			seen[k] = true
			want = append(want, k)
			if err := tr.Insert(k, k+1); err != nil {
				return false
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		var got []uint64
		if err := tr.Scan(0, ^uint64(0), func(k, v uint64) bool {
			if v != k+1 {
				return false
			}
			got = append(got, k)
			return true
		}); err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func newTreeQuick() *Tree {
	d := disk.New(0)
	pool := buffer.New(d, 128)
	tr, err := Create(pool)
	if err != nil {
		panic(err)
	}
	tr.setCapacity(5, 5)
	return tr
}

func TestNoPinLeaks(t *testing.T) {
	tr := newTree(t, 16)
	for i := 0; i < 2000; i++ {
		if err := tr.Insert(uint64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i += 2 {
		if _, err := tr.Delete(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Scan(0, ^uint64(0), func(uint64, uint64) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if n := tr.pool.PinnedFrames(); n != 0 {
		t.Errorf("pinned frames = %d, want 0", n)
	}
}

func TestTreeSmallPool(t *testing.T) {
	// Pool far smaller than the tree: every operation faults pages in
	// and out; correctness must not depend on residency.
	d := disk.New(0)
	pool := buffer.New(d, 4)
	tr, err := Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	for i := 0; i < n; i++ {
		if err := tr.Insert(uint64(i*7%n), uint64(i)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if got, _ := tr.Len(); got != n {
		t.Errorf("Len = %d, want %d", got, n)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
