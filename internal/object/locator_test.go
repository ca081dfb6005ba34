package object

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"revelation/internal/difftest"
	"revelation/internal/disk"
	"revelation/internal/heap"
	"revelation/internal/wal"
)

// oldMapLocator is MapLocator as it was, a Go map: the behaviour the
// dense directory is held to.
type oldMapLocator struct{ m map[OID]heap.RID }

func (l *oldMapLocator) Lookup(oid OID) (heap.RID, bool, error) {
	if oid.IsNil() {
		return heap.NilRID, false, ErrNilOID
	}
	rid, ok := l.m[oid]
	return rid, ok, nil
}

func (l *oldMapLocator) Register(oid OID, rid heap.RID) error {
	if oid.IsNil() {
		return ErrNilOID
	}
	l.m[oid] = rid
	return nil
}

func (l *oldMapLocator) Len() int { return len(l.m) }

// sameAnswer compares a Lookup of the two locators. An OID that is not
// registered must come back not found from both; the RID beside a "not
// found" is NilRID now (the map handed out the zero RID, page 0 slot 0,
// which no caller read).
func sameAnswer(fatalf func(string, ...any), when string, loc *MapLocator, old *oldMapLocator, oid OID) {
	rid, ok, err := loc.Lookup(oid)
	wantRID, wantOK, wantErr := old.Lookup(oid)
	if !wantOK {
		wantRID = heap.NilRID
	}
	if rid != wantRID || ok != wantOK || !errors.Is(err, wantErr) {
		fatalf("%s: Lookup(%v) = (%v, %v, %v), the map says (%v, %v, %v)", when, oid, rid, ok, err, wantRID, wantOK, wantErr)
	}
}

func sameLen(fatalf func(string, ...any), when string, loc *MapLocator, old *oldMapLocator) {
	if n, want := loc.Len(), old.Len(); n != want {
		fatalf("%s: Len = %d, the map says %d", when, n, want)
	}
}

// TestMapLocatorKeepsMapSemantics runs the cases the map decided — a
// never-registered OID (inside the dense range, past it, and the nil
// OID), a registered RID that is itself invalid, a re-registration, an
// OID in the overflow — against the dense directory and the map side by
// side.
func TestMapLocatorKeepsMapSemantics(t *testing.T) {
	type reg struct {
		oid OID
		rid heap.RID
	}
	const far = OID(1) << 40
	cases := []struct {
		name    string
		regs    []reg
		lookups []OID
	}{
		{"empty", nil, []OID{NilOID, 1, denseSlack, far}},
		{"hole inside the dense range", []reg{{1, heap.RID{Page: 3, Slot: 1}}, {9, heap.RID{Page: 4}}}, []OID{NilOID, 1, 2, 8, 9, 10}},
		{"registered invalid RID", []reg{{5, heap.NilRID}, {far, heap.NilRID}}, []OID{4, 5, 6, far, far + 1}},
		{"registered zero RID", []reg{{5, heap.RID{}}}, []OID{4, 5}},
		{"re-register overwrites", []reg{{7, heap.RID{Page: 1}}, {7, heap.RID{Page: 2, Slot: 3}}, {far, heap.RID{Page: 1}}, {far, heap.RID{Page: 9}}}, []OID{7, far}},
		{"re-register with an invalid RID", []reg{{7, heap.RID{Page: 1}}, {7, heap.NilRID}}, []OID{7}},
		{"nil OID refused", []reg{{NilOID, heap.RID{Page: 1}}, {2, heap.RID{Page: 1}}}, []OID{NilOID, 1, 2}},
		{"largest OID", []reg{{^OID(0), heap.RID{Page: 8, Slot: 2}}}, []OID{^OID(0), ^OID(0) - 1}},
		{"largest slot and page", []reg{{3, heap.RID{Page: disk.InvalidPage - 1, Slot: 65535}}}, []OID{3}},
	}
	for _, c := range cases {
		loc, old := NewMapLocator(), &oldMapLocator{m: map[OID]heap.RID{}}
		for _, r := range c.regs {
			err, want := loc.Register(r.oid, r.rid), old.Register(r.oid, r.rid)
			if !errors.Is(err, want) {
				t.Fatalf("%s: Register(%v) = %v, the map says %v", c.name, r.oid, err, want)
			}
			sameLen(t.Fatalf, c.name, loc, old)
		}
		for _, oid := range c.lookups {
			sameAnswer(t.Fatalf, c.name, loc, old, oid)
		}
	}
}

// The boundary between the dense directory and the overflow, and how an
// entry crosses it: an OID within denseSlack + twice the registered
// objects goes into the directory, one at that limit into the overflow;
// the directory may grow past an overflow entry, which is still found,
// and re-registered in place; and when the registered objects have
// doubled, the overflow entries within reach move into the directory.
// The map is consulted after every step.
func TestMapLocatorDenseOverflowBoundary(t *testing.T) {
	loc, old := NewMapLocator(), &oldMapLocator{m: map[OID]heap.RID{}}
	page := disk.PageID(0)
	register := func(oid OID) {
		t.Helper()
		page++
		rid := heap.RID{Page: page, Slot: 1}
		if err := loc.Register(oid, rid); err != nil {
			t.Fatal(err)
		}
		old.Register(oid, rid)
		sameLen(t.Fatalf, "after Register", loc, old)
		for known := range old.m {
			sameAnswer(t.Fatalf, "after Register", loc, old, known)
		}
		for _, probe := range []OID{oid - 1, oid + 1, denseSlack - 1, denseSlack, denseSlack + 1, 1<<40 + 1} {
			sameAnswer(t.Fatalf, "after Register", loc, old, probe)
		}
		for k := range loc.far {
			if uint64(k) < uint64(len(loc.dense)) && loc.dense[k].set {
				t.Fatalf("after Register(%v): %v is in the directory and in the overflow", oid, k)
			}
		}
	}
	shape := func(when string, dense, far int) {
		t.Helper()
		if len(loc.dense) != dense || len(loc.far) != far {
			t.Fatalf("%s: %d dense entries and %d in the overflow, want %d and %d", when, len(loc.dense), len(loc.far), dense, far)
		}
	}
	const s = denseSlack
	register(s - 1) // the last OID an empty locator takes densely
	shape("the last dense OID of an empty locator", s, 0)
	register(s + 2) // one registered: the limit is s+2, so this is out — and, counted, within reach of the sweep that is due
	shape("an OID at the limit, swept in at once", s+3, 0)
	register(2000) // out of reach, and no sweep due until four are registered
	register(2000) // again, while it is in the overflow
	shape("an OID out of reach", s+3, 1)
	register(s + 4) // three registered: within reach; four now, a sweep that finds nothing within reach
	shape("growth by a registration", s+5, 1)
	register(s + 16) // out of reach
	for _, oid := range []OID{s + 9, s + 11, s + 13, s + 15, s + 17} {
		register(oid) // each just within reach; the last takes the directory past s+16
	}
	shape("the directory has grown past an overflow entry", s+18, 2)
	if loc.dense[s+16].set {
		t.Fatal("the overflow entry the directory grew past was moved without a sweep")
	}
	register(s + 16) // again, in place: it leaves the overflow
	shape("an overflow entry re-registered below the dense end", s+18, 1)
	register(s + 26) // ten registered: the limit is s+20
	for oid := OID(1); oid <= 5; oid++ {
		register(oid) // the fifth is the sixteenth object: the sweep is due, and s+26 within reach
	}
	shape("a sweep at sixteen objects", s+27, 1)
	register(1 << 40)
	register(s + 27)
	shape("an OID far out", s+28, 2)
	if n := loc.Len(); n != 18 {
		t.Fatalf("Len = %d, want 18", n)
	}
}

// TestMapLocatorMatchesMap: random registrations and lookups over OIDs
// that are dense, sparse and far, in any order, answer as the map does.
func TestMapLocatorMatchesMap(t *testing.T) {
	t.Parallel()
	difftest.Walk(t, 0, 200, func(s *difftest.Seq) {
		rng := rand.New(rand.NewSource(s.Seed))
		loc, old := NewMapLocator(), &oldMapLocator{m: map[OID]heap.RID{}}
		span := []uint64{40, 3000, 20000, 1 << 33}[s.Seed%4]
		draw := func() OID {
			if rng.Intn(8) == 0 {
				return OID(rng.Uint64() >> uint(rng.Intn(40)))
			}
			return OID(rng.Uint64() % span)
		}
		for s.Step = 0; s.Step < 3000; s.Step++ {
			oid := draw()
			if rng.Intn(3) > 0 {
				rid := heap.RID{Page: disk.PageID(rng.Uint32()), Slot: 7}
				if err, want := loc.Register(oid, rid), old.Register(oid, rid); !errors.Is(err, want) {
					s.Fatalf("Register(%v) = %v, the map says %v", oid, err, want)
				}
				sameLen(s.Fatalf, "random", loc, old)
			}
			sameAnswer(s.Fatalf, "random", loc, old, oid)
			sameAnswer(s.Fatalf, "random", loc, old, draw())
		}
		for oid := range old.m {
			sameAnswer(s.Fatalf, "at the end", loc, old, oid)
		}
		if len(loc.dense) > 2*len(old.m)+denseSlack {
			s.Fatalf("%d dense entries for %d objects", len(loc.dense), len(old.m))
		}
		for k := range loc.far {
			if uint64(k) < uint64(len(loc.dense)) && loc.dense[k].set {
				s.Fatalf("%v is in the directory and in the overflow", k)
			}
		}
	})
}

// A database numbered 1..n ends up wholly dense whatever order its
// objects are registered in (a manifest lists them in physical order).
func TestMapLocatorShuffledLoadEndsDense(t *testing.T) {
	const n = 30000
	loc := NewMapLocator()
	for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
		if err := loc.Register(OID(i+1), heap.RID{Page: disk.PageID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := loc.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	if len(loc.far) != 0 || len(loc.dense) > n+denseSlack {
		t.Errorf("%d of %d objects left in the overflow, %d dense entries", len(loc.far), n, len(loc.dense))
	}
	for i := 0; i < n; i++ {
		if rid, ok, err := loc.Lookup(OID(i + 1)); err != nil || !ok || rid.Page != disk.PageID(i) {
			t.Fatalf("Lookup(%d) = (%v, %v, %v)", i+1, rid, ok, err)
		}
	}
}

// An OID of 1<<40 registered into a small locator costs what one map
// entry costs, not a directory that long.
func TestMapLocatorFarOIDCostsNoDirectory(t *testing.T) {
	loc := NewMapLocator()
	for oid := OID(1); oid <= 100; oid++ {
		loc.Register(oid, heap.RID{Page: 1})
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := loc.Register(1<<40, heap.RID{Page: 2, Slot: 3}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 64<<10 {
		t.Errorf("registering OID 1<<40 grew the heap by %d bytes", grew)
	}
	if len(loc.dense) > 101 {
		t.Errorf("dense directory grew to %d entries", len(loc.dense))
	}
	if rid, ok, err := loc.Lookup(1 << 40); err != nil || !ok || rid != (heap.RID{Page: 2, Slot: 3}) {
		t.Errorf("Lookup(1<<40) = (%v, %v, %v)", rid, ok, err)
	}
	if n := loc.Len(); n != 101 {
		t.Errorf("Len = %d, want 101", n)
	}
}

// TestStoreGetAllocs pins Store.Get at the one allocation of the object
// it returns (the Object and its fields' arrays, one block): one decode,
// and nothing for the lookup or the callback.
func TestStoreGetAllocs(t *testing.T) {
	s := newStore(t, NewMapLocator())
	o := &Object{OID: 5, Class: 1, Ints: []int32{1, 2, 3, 4}, Refs: []OID{6, 0, 0, 0, 0, 0, 0, 0}}
	if _, err := s.Put(o); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if got, err := s.Get(5); err != nil || got.Refs[0] != 6 {
			t.Fatalf("Get = %+v, %v", got, err)
		}
	})
	if allocs != 1 {
		t.Errorf("Store.Get allocates %v times, want 1", allocs)
	}
	if got, err := s.Get(6); err == nil || got != nil {
		t.Errorf("Get of an unregistered OID = %+v, %v", got, err)
	}
}

// TestStoreUpdateAllocs pins Store.Update at next to nothing with a log
// attached, committed every 32 updates as the update workload does: the
// object is encoded straight into its record on the page, and the log
// takes the record's bytes as a delta into its pending buffer. What is
// left is amortised — the log device grows in 64 KB chunks as the
// commits fill it — so it is counted with MemStats over 32 768 updates
// (0.0025 per update), not testing.AllocsPerRun, which truncates a
// fraction of an allocation to nothing.
func TestStoreUpdateAllocs(t *testing.T) {
	s := newStore(t, NewMapLocator())
	o := &Object{OID: 5, Class: 1, Ints: []int32{1, 2, 3, 4}, Refs: []OID{6, 0, 0, 0, 0, 0, 0, 0}}
	if _, err := s.Put(o); err != nil {
		t.Fatal(err)
	}
	log := disk.New(0)
	w, err := wal.Open(log)
	if err != nil {
		t.Fatal(err)
	}
	s.File.Pool().SetWAL(w)
	const commit, runs = 32, 32768
	updates := 0
	update := func() {
		o.Ints[1]++
		if err := s.Update(o); err != nil {
			t.Fatal(err)
		}
		if updates++; updates%commit == 0 {
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for range commit { // the first update logs the page's image
		update()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		update()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("%.5f allocations per update", allocs)
	if allocs > 0.01 {
		t.Errorf("Store.Update allocates %.5f times per update, want at most 0.01", allocs)
	}
	if got, err := s.Get(5); err != nil || got.Ints[1] != o.Ints[1] {
		t.Errorf("after the updates Get = %+v, %v; want Ints[1] = %d", got, err, o.Ints[1])
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	deltas := 0
	r := wal.NewReader(log)
	for rec, err := r.Next(); err == nil; rec, err = r.Next() {
		if rec.Kind == wal.RecDelta {
			deltas++
		}
	}
	if deltas != updates-1 {
		t.Errorf("%d updates logged %d deltas, want %d", updates, deltas, updates-1)
	}
}

// transactor runs the update workload's transaction over a resident
// store with a log attached: pairs of Get, a change of Ints[1] and
// Update, committed by one Sync every 32 pairs, with a checkpoint (every
// dirty page flushed, a fresh log) every 1024 commits, which keeps the
// log of a long benchmark small. Every value read is checked against
// the last one written.
type transactor struct {
	s      *Store
	w      *wal.Writer
	shadow []int32 // Ints[1] of each object, by OID
	pairs  int
}

const (
	txnObjects    = 72   // eight 1 KB pages of the benchmark object, all resident
	txnPairs      = 32   // pairs per commit
	txnCheckpoint = 1024 // commits per checkpoint
)

// newTransactor loads the store and runs one transaction over every
// object, so that each page's first image is in the log.
func newTransactor(tb testing.TB) *transactor {
	s := newStore(tb, NewMapLocator())
	x := &transactor{s: s, shadow: make([]int32, txnObjects+1)}
	for oid := OID(1); oid <= txnObjects; oid++ {
		o := &Object{OID: oid, Class: 1, Ints: make([]int32, 4), Refs: make([]OID, 8)}
		if _, err := s.Put(o); err != nil {
			tb.Fatal(err)
		}
	}
	x.openLog(tb, 0)
	for x.pairs < txnObjects || x.pairs%txnPairs != 0 {
		x.pair(tb)
	}
	return x
}

// pair reads, changes and writes back the next object, seven OIDs on
// from the last, and commits after every 32nd.
func (x *transactor) pair(tb testing.TB) {
	oid := OID(1 + x.pairs*7%txnObjects)
	o, err := x.s.Get(oid)
	if err != nil {
		tb.Fatal(err)
	}
	if o.Ints[1] != x.shadow[oid] {
		tb.Fatalf("%v: Ints[1] = %d, last written %d", oid, o.Ints[1], x.shadow[oid])
	}
	o.Ints[1]++
	if err := x.s.Update(o); err != nil {
		tb.Fatal(err)
	}
	x.shadow[oid] = o.Ints[1]
	if x.pairs++; x.pairs%txnPairs != 0 {
		return
	}
	if err := x.w.Sync(); err != nil {
		tb.Fatal(err)
	}
	if x.pairs%(txnPairs*txnCheckpoint) == 0 {
		if err := x.s.File.Pool().FlushAll(); err != nil {
			tb.Fatal(err)
		}
		if err := x.w.Close(); err != nil {
			tb.Fatal(err)
		}
		x.openLog(tb, x.w.DurableLSN())
	}
}

// openLog attaches a fresh log whose records come after LSN after.
func (x *transactor) openLog(tb testing.TB, after uint64) {
	w, err := wal.OpenAfter(disk.New(0), after)
	if err != nil {
		tb.Fatal(err)
	}
	x.s.File.Pool().SetWAL(w)
	x.w = w
}

// TestTransactAllocs pins the update workload's transaction at one
// allocation per pair, the object Get returns (Update allocates nothing,
// and the log's growth at its commit next to nothing), with at most 1 %
// over it: MemStats over 256 transactions, since testing.AllocsPerRun
// truncates a transaction's count to a whole number.
func TestTransactAllocs(t *testing.T) {
	x := newTransactor(t)
	const txns = 256
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range txns * txnPairs {
		x.pair(t)
	}
	runtime.ReadMemStats(&after)
	if perPair := float64(after.Mallocs-before.Mallocs) / (txns * txnPairs); perPair > 1.01 {
		t.Errorf("a transaction allocates %.4f times per pair, want at most 1.01", perPair)
	}
}

// BenchmarkStoreTransact reports allocs/op and B/op for one of
// TestTransactAllocs's transactions (divide by 32 for the update
// workload's per-object figures).
func BenchmarkStoreTransact(b *testing.B) {
	x := newTransactor(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for range txnPairs {
			x.pair(b)
		}
	}
}

// TestStoreUpdateMatchesEncode: every record an update leaves on the
// page is byte for byte what Encode makes of the object — when it keeps
// its length, grows or shrinks, and over a record whose reserved header
// bytes were not zero — and the records beside it are untouched.
func TestStoreUpdateMatchesEncode(t *testing.T) {
	s := newStore(t, NewMapLocator())
	rng := rand.New(rand.NewSource(26))
	random := func(oid OID) *Object {
		o := &Object{OID: oid, Class: ClassID(rng.Intn(4)), Ints: make([]int32, rng.Intn(7)), Refs: make([]OID, rng.Intn(7))}
		for i := range o.Ints {
			o.Ints[i] = rng.Int31() - 1<<30
		}
		for i := range o.Refs {
			o.Refs[i] = OID(rng.Uint64())
		}
		return o
	}
	want := map[OID][]byte{}
	for oid := OID(1); oid <= 5; oid++ {
		rec, err := Encode(random(oid))
		if err != nil {
			t.Fatal(err)
		}
		rec[12], rec[15] = 0xEE, 0x01 // reserved bytes a writer left set
		rid, err := s.File.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Locator.Register(oid, rid); err != nil {
			t.Fatal(err)
		}
		want[oid] = rec
	}
	for step := 0; step < 500; step++ {
		oid := OID(1 + rng.Intn(5))
		o := random(oid)
		if step < 5 { // first over the dirty records, at their length
			prev, _ := Decode(want[oid])
			o = &Object{OID: oid, Class: prev.Class, Ints: prev.Ints, Refs: prev.Refs}
		}
		if err := s.Update(o); err != nil {
			t.Fatalf("step %d: update %v: %v", step, oid, err)
		}
		want[oid], _ = Encode(o)
		for oid, rec := range want {
			rid, _, _ := s.WhereIs(oid)
			got, err := s.File.Read(rid)
			if err != nil || string(got) != string(rec) {
				t.Fatalf("step %d: record of %v is\n %x, %v\nwant\n %x", step, oid, got, err, rec)
			}
		}
	}
}

var lookupSink heap.RID

// BenchmarkLocatorLookup: the directory's three answers — an object in
// the dense range, a hole in it, an object in the overflow.
func BenchmarkLocatorLookup(b *testing.B) {
	const n = 28000 // the objects of the benchmark's scan workload
	loc := NewMapLocator()
	for oid := OID(1); oid <= n; oid++ {
		if oid%7 != 0 {
			loc.Register(oid, heap.RID{Page: disk.PageID(oid / 9), Slot: 1})
		}
	}
	for k := OID(0); k < 64; k++ {
		loc.Register(1<<40+k, heap.RID{Page: 1})
	}
	run := func(name string, next func(i int) OID, found bool) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rid, ok, err := loc.Lookup(next(i))
				if err != nil || ok != found {
					b.Fatalf("Lookup = (%v, %v, %v)", rid, ok, err)
				}
				lookupSink = rid
			}
		})
	}
	run("dense-hit", func(i int) OID { return OID(uint32(i)*2654435761%4000)*7 + 1 }, true)
	run("dense-miss", func(i int) OID { return OID(uint32(i)*2654435761%4000)*7 + 7 }, false)
	run("overflow", func(i int) OID { return 1<<40 + OID(i&63) }, true)
}
