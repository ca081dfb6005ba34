package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"revelation/internal/assembly"
	"revelation/internal/disk"
	"revelation/internal/gen"
	"revelation/internal/object"
	"revelation/internal/pagesvc"
	"revelation/internal/shard"
	"revelation/internal/volcano"
	"revelation/internal/wal"
)

const (
	// fleetSize is fixed at two members so that lanes = cores on the
	// two-core box the bounds were measured on, and so that numbers
	// compare across machines.
	fleetSize = 2
	// updatesPerTxn components are read, changed and written back
	// before each commit (wal.Writer.Sync).
	updatesPerTxn = 32
	// txnsPerCheckpoint transactions share one log epoch. A checkpoint
	// flushes the pool and starts a fresh log device, which keeps log
	// memory bounded and puts several checkpoints in every segment.
	txnsPerCheckpoint = 1024
)

// spec describes one workload. Everything the program under test sees
// is generated from the seed; the spec fixes only sizes and policies.
type spec struct {
	name, why string
	cfg       gen.Config // seed filled in at build time
	window    int
	batch     int  // roots per query
	sharded   bool // two-member page-service fleet under the pool
	update    bool // WAL update transactions instead of assembly
	// warmup and counted are query counts: the discarded warm-up that
	// ends set-up, and the fixed work of the counted/traced pass.
	warmup, counted int
}

var specs = []*spec{
	{
		name: "scan-local",
		why:  "restricted buffer (800 frames, ~26% of the data) over a local disk: victim choice in buffer.Pool dominates; wire absent",
		cfg:  gen.Config{NumComplexObjects: 4000, Clustering: gen.Unclustered, BufferPages: 800},
		// One cycle over the 4000 roots is 10 queries.
		window: 50, batch: 400, warmup: 10, counted: 10,
	},
	{
		name:   "deep-window",
		why:    "31-component shared-leaf objects, W=200, pool holds the data: elevator and decode/alloc dominate; buffer and wire changes must not move it",
		cfg:    gen.Config{NumComplexObjects: 1000, Fanouts: []int{2, 2, 2, 2}, Sharing: 0.25, Clustering: gen.Unclustered},
		window: 200, batch: 250, warmup: 4, counted: 4,
	},
	{
		name:   "scan-sharded",
		why:    "2-member loopback page-service fleet, 64-frame pool so ~6.6 of 7 components cross the wire: pagesvc and shard.Router dominate",
		cfg:    gen.Config{NumComplexObjects: 2000, Clustering: gen.Unclustered, BufferPages: 64},
		window: 50, batch: 100, sharded: true, warmup: 20, counted: 20,
	},
	{
		name:   "update-wal",
		why:    "32 get/update pairs per WAL commit, checkpoint every 1024 commits: the write side of buffer, object and disk, so read-side gains that tax writes show",
		cfg:    gen.Config{NumComplexObjects: 2000, Clustering: gen.Unclustered},
		update: true, warmup: txnsPerCheckpoint, counted: 8 * txnsPerCheckpoint,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// member is one shard of the fleet with the decorators of its hop.
type member struct {
	sim    *disk.Sim
	client disk.Device // pagesvc.Client, decorated in a traced env
	wire   *wire
}

// env is one built workload: database, device stack and client state.
// The timed pass uses an env with nothing attached (rec == nil); the
// counted/traced pass builds a second one with decorators installed.
type env struct {
	spec   *spec
	db     *gen.Database
	rec    *recorder
	oracle *oracle
	closes []func() error

	items []volcano.Item // db.Roots, boxed once
	next  int            // next query's ordinal
	seen  []int32        // by OID: ordinal+1 of the query that last emitted this root

	router  *shard.Router
	members []*member

	// Update workload.
	log    walLog
	logSim *disk.Sim
	rng    *rand.Rand
	shadow []int32 // by OID: last committed Ints[1]
	txns   int
	serial int32
	audit  *walAudit // counted pass only

	// Operator counters summed over queries (public assembly.Stats).
	resolved, peakRefPool, peakWindowPages int

	attempted, failed int
}

// build generates the workload's database on its device stack. With a
// recorder, every device, scheduler and log is decorated.
func build(s *spec, seed int64, rec *recorder, or *oracle) (*env, error) {
	e := &env{spec: s, rec: rec, oracle: or}
	cfg := s.cfg
	cfg.Seed = seed
	switch {
	case s.sharded:
		if err := e.bootFleet(seed); err != nil {
			e.close()
			return nil, err
		}
		cfg.Device = e.decorate(e.router, spShardRead, spShardWrite, 0, nil, nil)
	case rec != nil && s.update:
		e.audit = newWalAudit(e)
		cfg.Device = auditedDevice{
			timedDevice: &timedDevice{inner: disk.New(0), rec: rec, read: spDiskRead, write: spDiskWrite},
			audit:       e.audit,
		}
	case rec != nil:
		cfg.Device = e.decorate(disk.New(0), spDiskRead, spDiskWrite, 0, nil, nil)
	}
	db, err := gen.Build(cfg)
	if err != nil {
		e.close()
		return nil, fmt.Errorf("%s: generate: %w", s.name, err)
	}
	e.db = db
	e.closes = append(e.closes, db.Pool.Close)
	e.items = make([]volcano.Item, len(db.Roots))
	for i, r := range db.Roots {
		e.items[i] = r
	}
	e.seen = make([]int32, db.NextOID)
	if s.update {
		e.rng = rand.New(rand.NewSource(seed + 1))
		e.shadow = append([]int32(nil), or.ints1...)
		if err := e.openLog(); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// decorate wraps dev when this env is traced and returns it bare
// otherwise.
func (e *env) decorate(dev disk.Device, read, write spanKind, lane uint8, publish, adopt *wire) disk.Device {
	if e.rec == nil {
		return dev
	}
	return &timedDevice{inner: dev, rec: e.rec, read: read, write: write, lane: lane, publish: publish, adopt: adopt}
}

// bootFleet starts fleetSize in-process page servers on loopback TCP,
// dials a client to each and routes over them. Member names are fixed,
// so the rendezvous assignment does not depend on the ports.
func (e *env) bootFleet(seed int64) error {
	members := make([]shard.Member, fleetSize)
	for i := range members {
		m := &member{sim: disk.New(0), wire: &wire{}}
		lane := uint8(i)
		srv := pagesvc.NewServer([]disk.Device{
			e.decorate(m.sim, spDiskRead, spDiskWrite, lane, nil, m.wire),
		}, pagesvc.ServerConfig{})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("%s: listen: %w", e.spec.name, err)
		}
		e.closes = append(e.closes, srv.Close)
		client, err := pagesvc.Dial(pagesvc.ClientConfig{
			Primary:    addr,
			Dev:        pagesvc.DataDev,
			JitterSeed: seed + int64(i) + 1,
		})
		if err != nil {
			return fmt.Errorf("%s: dial: %w", e.spec.name, err)
		}
		e.closes = append(e.closes, client.Close)
		m.client = e.decorate(client, spNetRead, spNetWrite, lane, m.wire, nil)
		e.members = append(e.members, m)
		members[i] = shard.Member{Name: fmt.Sprintf("s%d", i), Primary: m.client}
	}
	router, err := shard.New(shard.Config{Members: members})
	if err != nil {
		return fmt.Errorf("%s: router: %w", e.spec.name, err)
	}
	e.router = router
	e.closes = append(e.closes, router.Close)
	return nil
}

// openLog starts a log epoch on a fresh device and attaches it.
func (e *env) openLog() error {
	e.logSim = disk.New(0)
	w, err := wal.Open(e.decorate(e.logSim, spDiskRead, spDiskWrite, 1, nil, nil))
	if err != nil {
		return fmt.Errorf("%s: open log: %w", e.spec.name, err)
	}
	e.log = w
	if e.rec != nil {
		e.log = &timedWAL{inner: w, rec: e.rec}
	}
	e.db.Pool.SetWAL(e.log)
	return nil
}

// close tears the env down in reverse build order; servers wait for
// their goroutines.
func (e *env) close() error {
	var errs []error
	for i := len(e.closes) - 1; i >= 0; i-- {
		errs = append(errs, e.closes[i]())
	}
	e.closes = nil
	return errors.Join(errs...)
}

// query runs the next whole query of the closed loop and reports how
// many objects it handed back. A result that fails verification makes
// the query failed; an engine error ends the run.
func (e *env) query() (objects int, err error) {
	var root spanID
	if e.rec != nil && e.rec.on.Load() {
		kind := spOperator
		if e.spec.update {
			kind = spStore
		}
		root = e.rec.beginQuery(kind)
	}
	var ok bool
	if e.spec.update {
		objects, ok, err = e.transact()
	} else {
		objects, ok, err = e.assemble()
	}
	if root != 0 {
		e.rec.end(root, true)
	}
	if err == nil && e.audit != nil && e.audit.retired != nil {
		err = e.audit.verifyEpoch()
	}
	e.next++
	e.attempted++
	if !ok {
		e.failed++
	}
	return objects, err
}

// assemble runs the assembly operator over the next batch of roots,
// cycling through the set, and verifies every emitted object.
func (e *env) assemble() (int, bool, error) {
	s := e.spec
	lo := e.next * s.batch % len(e.items)
	opts := assembly.Options{Window: s.window, Scheduler: assembly.Elevator}
	if s.sharded {
		opts.CustomScheduler = assembly.NewShardElevator(fleetSize, e.router.ShardOf)
		opts.ShardPrefetch = true
	}
	if e.rec != nil {
		if opts.CustomScheduler == nil {
			opts.CustomScheduler = assembly.NewScheduler(assembly.Elevator)
		}
		opts.CustomScheduler = wrapScheduler(e.rec, opts.CustomScheduler)
	}
	op := assembly.New(volcano.NewSlice(e.items[lo:lo+s.batch]), e.db.Store, e.db.Template, opts)
	if err := op.Open(); err != nil {
		return 0, false, fmt.Errorf("%s: open: %w", s.name, err)
	}
	n, ok := 0, true
	mark := int32(e.next + 1)
	for {
		it, err := op.Next()
		if errors.Is(err, volcano.Done) {
			break
		}
		if err != nil {
			op.Close()
			return n, false, fmt.Errorf("%s: query %d: %w", s.name, e.next, err)
		}
		in := it.(*assembly.Instance)
		n++
		if !e.oracle.matches(in) || e.seen[in.OID()] == mark {
			ok = false
		}
		e.seen[in.OID()] = mark
	}
	st := op.Stats()
	if err := op.Close(); err != nil {
		return n, false, fmt.Errorf("%s: close: %w", s.name, err)
	}
	e.resolved += st.Resolved
	e.peakRefPool = max(e.peakRefPool, st.PeakRefPool)
	e.peakWindowPages = max(e.peakWindowPages, st.PeakWindowPgs)
	return n, ok && n == s.batch, nil
}

// transact reads, changes and writes back updatesPerTxn components and
// commits them with one log sync. Every value read is checked against
// the shadow of committed values.
func (e *env) transact() (int, bool, error) {
	ok := true
	store := e.db.Store
	for i := 0; i < updatesPerTxn; i++ {
		oid := object.OID(1 + e.rng.Intn(len(e.shadow)-1))
		o, err := store.Get(oid)
		if err != nil {
			return i, false, fmt.Errorf("update-wal: get %v: %w", oid, err)
		}
		if o.Ints[1] != e.shadow[oid] {
			ok = false
		}
		e.serial++
		o.Ints[1] = e.serial
		if err := store.Update(o); err != nil {
			return i, false, fmt.Errorf("update-wal: update %v: %w", oid, err)
		}
		e.shadow[oid] = e.serial
		if e.audit != nil {
			e.audit.touched = append(e.audit.touched, oid)
		}
	}
	if err := e.log.Sync(); err != nil {
		return updatesPerTxn, false, fmt.Errorf("update-wal: commit: %w", err)
	}
	e.txns++
	if e.txns%txnsPerCheckpoint == 0 {
		if err := e.checkpoint(); err != nil {
			return updatesPerTxn, false, err
		}
	}
	return updatesPerTxn, ok, nil
}

// checkpoint flushes every dirty page, retires the log and starts the
// next epoch on a fresh log device. The caller's transaction pays for
// it, as a client of the engine would.
func (e *env) checkpoint() error {
	var sp spanID
	if e.rec != nil && e.rec.on.Load() {
		sp = e.rec.begin(spWalCheckpoint, 0, 0, true)
	}
	err := e.db.Pool.FlushAll()
	if err == nil {
		err = e.log.Close()
	}
	if err == nil {
		if e.audit != nil {
			e.audit.retire(e.logSim, e.log.Tail())
		}
		err = e.openLog()
	}
	if sp != 0 {
		e.rec.end(sp, true)
	}
	if err != nil {
		return fmt.Errorf("update-wal: checkpoint: %w", err)
	}
	return nil
}

// runQueries runs n queries back to back and returns objects and time.
func (e *env) runQueries(n int) (objects int, wall time.Duration, err error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		k, err := e.query()
		objects += k
		if err != nil {
			return objects, time.Since(start), err
		}
	}
	return objects, time.Since(start), nil
}
