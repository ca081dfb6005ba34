package suite

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"revelation/internal/assembly"
	"revelation/internal/disk"
	"revelation/internal/expr"
	"revelation/internal/fleet"
	"revelation/internal/gen"
	"revelation/internal/metrics"
	"revelation/internal/object"
	"revelation/internal/pagesvc"
	"revelation/internal/shard"
	"revelation/internal/volcano"
)

// env is one fully built scenario environment: a generated database on
// the scenario's device backend. Its lifetime belongs to the caller:
// the suite builds a fresh one per iteration, so iterations are
// independent and byte-identical under the same seed; a Session keeps
// one per physical configuration and runs every point that shares it
// cold (run evicts the pool and parks the head first).
type env struct {
	db *gen.Database
	// label names the physical configuration (Scenario.label): the
	// dev=/pool= value of every series this env registers.
	label  string
	faulty *disk.Faulty // non-nil when the scenario arms fault/stall knobs
	// netLabels are the dev labels of the page-service clients under
	// the pool: one on the pagesvc backend, one per member on a fleet.
	netLabels []string
	// Sharded backend: the router the database was built over.
	router *shard.Router
	// Reshard workload: the prepared fourth member (dialed but not yet
	// joined) and how many pages the measured migration cut over.
	joiner   shard.Member
	migrated int
	// policies are the scheduler labels the run's operators booked
	// their counters under: one, or one per half of a reshard, whose
	// fleet widens between them.
	policies []string
	closes   []func() error
}

func (e *env) close() {
	for i := len(e.closes) - 1; i >= 0; i-- {
		e.closes[i]()
	}
}

// faulted reports whether the scenario arms the fault/stall injector.
func (sc Scenario) faulted() bool {
	return sc.FaultTransient > 0 || sc.FaultPermanent > 0 || sc.StallRate > 0
}

// label names the scenario's physical configuration: every knob
// buildEnv reads, so it keys a Session's envs, and two live databases
// never share a dev=/pool= value in one registry. (A striped device
// appends the arm index, hence the non-digit ending.)
func (sc Scenario) label() string {
	cfg := sc.genConfig()
	l := fmt.Sprintf("%s-%s-%s-n%d-sh%g-buf%d-reg%d-extra%d-seed%d", sc.Backend, sc.Shape, sc.Clustering,
		sc.Objects, sc.Sharing, sc.BufferPgs, sc.RegionPages, cfg.ExtraPages, sc.Seed)
	if sc.faulted() {
		l += "-faulty"
	}
	if sc.Workload == WorkloadReshard {
		l += "-joiner"
	}
	if sc.Devices > 0 {
		l += fmt.Sprintf("-%dx", sc.Devices)
	}
	return l
}

// buildEnv constructs the scenario's device stack and generates the
// database onto it. Nothing is traced here: the measurement bracket
// attaches the tracer to the device stack for one run. The registry, when non-nil, receives the
// device's, the pool's and the clients' series under the env's label.
func buildEnv(sc Scenario, reg *metrics.Registry) (*env, error) {
	e := &env{label: sc.label()}
	if err := e.build(sc, reg); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *env) build(sc Scenario, reg *metrics.Registry) error {
	cfg := sc.genConfig()
	switch sc.Backend {
	case BackendLocal:
		switch {
		case sc.Devices > 0:
			devs := make([]disk.Device, sc.Devices)
			for i := range devs {
				devs[i] = disk.New(0)
			}
			striped, err := disk.NewStriped(devs, 8) // 8-page stripes
			if err != nil {
				return err
			}
			cfg.Device = striped
		case sc.faulted():
			// The injector stays disarmed during the build; run arms it
			// right before the measured phase.
			e.faulty = disk.NewFaulty(disk.New(0), disk.FaultConfig{})
			cfg.Device = e.faulty
		}
	case BackendFile:
		dir, err := os.MkdirTemp("", "asmsuite-*")
		if err != nil {
			return err
		}
		e.closes = append(e.closes, func() error { return os.RemoveAll(dir) })
		fd, err := disk.OpenFile(filepath.Join(dir, "pages.db"), disk.DefaultPageSize)
		if err != nil {
			return err
		}
		e.closes = append(e.closes, fd.Close)
		cfg.Device = fd
	case BackendPagesvc:
		client, err := e.serve(e.label, reg)
		if err != nil {
			return err
		}
		cfg.Device = client
	case BackendSharded:
		// A three-shard fleet: each member is its own in-process page
		// service, each client labeled so the registry keeps per-shard
		// series. Closing the router closes the clients too (Close is
		// idempotent, so the closers serve registered stay safe).
		const fleet = 3
		member := func(i int) (shard.Member, error) {
			client, err := e.serve(fmt.Sprintf("%s-s%d", e.label, i), reg)
			return shard.Member{Name: fmt.Sprintf("s%d", i), Primary: client}, err
		}
		members := make([]shard.Member, fleet)
		for i := range members {
			var err error
			if members[i], err = member(i); err != nil {
				return err
			}
		}
		router, err := shard.New(shard.Config{Members: members, Registry: reg})
		if err != nil {
			return err
		}
		e.closes = append(e.closes, router.Close)
		e.router = router
		cfg.Device = router
		if sc.Workload == WorkloadReshard {
			// Prepare the fourth member now (dial is setup, not workload)
			// but leave the join to the measured phase.
			if e.joiner, err = member(fleet); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("suite: unknown backend %q", sc.Backend)
	}

	db, err := gen.Build(cfg)
	if err != nil {
		return err
	}
	e.db = db
	if reg != nil {
		disk.RegisterMetrics(db.Device, reg, e.label)
		db.Pool.RegisterMetrics(reg, e.label)
	}
	return nil
}

// serve starts an in-process page service over a fresh simulated disk
// and dials it. The client's asm_net_* series carry the given dev
// label, which joins e.netLabels.
func (e *env) serve(label string, reg *metrics.Registry) (*pagesvc.Client, error) {
	srv := pagesvc.NewServer([]disk.Device{disk.New(0)}, pagesvc.ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.closes = append(e.closes, srv.Close)
	client, err := pagesvc.Dial(pagesvc.ClientConfig{
		Primary:  addr,
		Dev:      pagesvc.DataDev,
		Registry: reg,
		Label:    label,
	})
	if err != nil {
		return nil, err
	}
	e.closes = append(e.closes, client.Close)
	e.netLabels = append(e.netLabels, label)
	return client, nil
}

// armFaults configures the injector for the measured phase.
func (e *env) armFaults(sc Scenario) {
	if e.faulty == nil {
		return
	}
	e.faulty.SetConfig(disk.FaultConfig{
		Seed:              sc.FaultSeed,
		TransientRate:     sc.FaultTransient,
		TransientFailures: 2,
		PermanentRate:     sc.FaultPermanent,
		StallRate:         sc.StallRate,
		Stall:             sc.Stall,
	})
}

// template is the assembly template for the scenario: the database's
// own, or — with Selectivity set — a clone carrying the predicate on
// the paper shape's rightmost leaf (position G), whose ints[1] is
// uniform over [0,1000).
func (sc Scenario) template(e *env) *assembly.Template {
	if sc.Selectivity <= 0 {
		return e.db.Template
	}
	tmpl := e.db.Template.Clone()
	tmpl.Children[1].Children[1].Pred = expr.IntCmp{
		Field: 1,
		Op:    expr.LT,
		Value: int32(sc.Selectivity * 1000),
		Sel:   sc.Selectivity,
	}
	return tmpl
}

// assembleRoots runs the assembly operator over the given roots and
// returns its stats after checking the drain count matches.
func assembleRoots(sc Scenario, e *env, roots []object.OID, reg *metrics.Registry) (assembly.Stats, error) {
	// Over a striped extent or a fleet the operator's Elevator keeps a
	// lane per arm by itself; GlobalElevator asks for the one sweep.
	op := assembly.New(volcano.FromOIDs(roots), e.db.Store, sc.template(e), assembly.Options{
		Window:          sc.Window,
		Scheduler:       sc.Scheduler,
		PredicateFirst:  sc.PredicateFirst,
		UseSharingStats: sc.UseSharingStats,
		PinWindowPages:  sc.PinWindow,
		PageBatch:       sc.PageBatch,
		FaultPolicy:     sc.FaultPolicy,
		Metrics:         reg,
	})
	n, err := volcano.Count(op)
	if err != nil {
		return assembly.Stats{}, err
	}
	st := op.Stats()
	if !slices.Contains(e.policies, op.Policy()) {
		e.policies = append(e.policies, op.Policy())
	}
	if n != st.Assembled {
		return st, fmt.Errorf("suite %s: drained %d objects but operator assembled %d", sc.Name, n, st.Assembled)
	}
	return st, nil
}

// runWorkload executes the scenario's measured phase and returns the
// operator stats (Assembled is the op count per-op rates normalize by).
func runWorkload(sc Scenario, e *env, reg *metrics.Registry, prep *prepared) (assembly.Stats, error) {
	switch sc.Workload {
	case WorkloadTimeSeries:
		roots, err := appendTrees(sc, e)
		if err != nil {
			return assembly.Stats{}, err
		}
		return assembleRoots(sc, e, roots, reg)
	case WorkloadIncremental:
		roots, err := mutateComponents(sc, e, prep)
		if err != nil {
			return assembly.Stats{}, err
		}
		return assembleRoots(sc, e, roots, reg)
	case WorkloadReshard:
		// Assemble the first half of the roots on the three-member
		// fleet, live-reshard the fourth member in, assemble the rest on
		// the enlarged fleet. The migration is part of the measured
		// phase: its copy reads flow through the router and its cutovers
		// are WAL-logged to a dedicated meta device.
		half := len(e.db.Roots) / 2
		st1, err := assembleRoots(sc, e, e.db.Roots[:half], reg)
		if err != nil {
			return assembly.Stats{}, err
		}
		mg, err := fleet.NewMigrator(fleet.MigratorConfig{
			Router:     e.router,
			MetaDev:    disk.New(0),
			ChunkPages: 32,
			Registry:   reg,
		})
		if err != nil {
			return assembly.Stats{}, err
		}
		e.migrated, err = mg.Join(e.joiner)
		mg.Close()
		if err != nil {
			return assembly.Stats{}, fmt.Errorf("suite %s: reshard: %w", sc.Name, err)
		}
		st2, err := assembleRoots(sc, e, e.db.Roots[half:], reg)
		return addStats(st1, st2), err
	default: // WorkloadAssemble
		return assembleRoots(sc, e, e.db.Roots, reg)
	}
}

// addStats merges two sequential operator runs' stats: totals add,
// peaks take the max (the runs never overlap in time).
func addStats(a, b assembly.Stats) assembly.Stats {
	s := assembly.Stats{
		Assembled:      a.Assembled + b.Assembled,
		Aborted:        a.Aborted + b.Aborted,
		Resolved:       a.Resolved + b.Resolved,
		Fetched:        a.Fetched + b.Fetched,
		PageRequests:   a.PageRequests + b.PageRequests,
		SharedLinks:    a.SharedLinks + b.SharedLinks,
		PredicateFails: a.PredicateFails + b.PredicateFails,
		NilRefs:        a.NilRefs + b.NilRefs,
		Skipped:        a.Skipped + b.Skipped,
		FaultRetries:   a.FaultRetries + b.FaultRetries,
		WindowStalls:   a.WindowStalls + b.WindowStalls,
		PeakRefPool:    a.PeakRefPool,
		PeakWindowPgs:  a.PeakWindowPgs,
	}
	if b.PeakRefPool > s.PeakRefPool {
		s.PeakRefPool = b.PeakRefPool
	}
	if b.PeakWindowPgs > s.PeakWindowPgs {
		s.PeakWindowPgs = b.PeakWindowPgs
	}
	return s
}

// appendTrees materializes AppendCount fresh complex objects at the
// extent's tail — time-ordered arrivals landing on the headroom pages —
// and returns their roots. Runs inside the measured phase: the page
// faults the appends take are part of the workload.
func appendTrees(sc Scenario, e *env) ([]object.OID, error) {
	db := e.db
	rng := rand.New(rand.NewSource(sc.Seed + 1))
	positions := len(db.Positions)
	objPerPage := (disk.DefaultPageSize - 32) / (96 + 4)
	nextOID := db.NextOID
	placed := 0
	roots := make([]object.OID, 0, sc.AppendCount)
	for t := 0; t < sc.AppendCount; t++ {
		oids := make([]object.OID, positions)
		for p := range oids {
			oids[p] = nextOID
			nextOID++
		}
		roots = append(roots, oids[0])
		for p := 0; p < positions; p++ {
			o := &object.Object{
				OID:   oids[p],
				Class: db.Positions[p].ID,
				Ints:  []int32{int32(t), int32(rng.Intn(1000)), int32(t), int32(p)},
				Refs:  make([]object.OID, 8),
			}
			for f, cp := range db.Children[p] {
				o.Refs[f] = oids[cp]
			}
			page := db.DataPages + placed/objPerPage
			if _, err := db.Store.PutAt(o, page); err != nil {
				return nil, fmt.Errorf("suite %s: append tree %d: %w", sc.Name, t, err)
			}
			placed++
		}
	}
	return roots, nil
}

// prepared is the standing-query registration the incremental workload
// builds before measurement: for every component, the roots whose
// assembled result it feeds.
type prepared struct {
	rootsOf map[object.OID][]object.OID
	// comps is the deterministic mutation candidate list: every
	// component OID in ascending order.
	comps []object.OID
}

// register walks every root's object graph (unmeasured — this is the
// standing query's registration pass) and builds the reverse
// dependency index. Shared components map to every root that reaches
// them, which is what makes re-assembly after a shared-leaf mutation
// touch all its dependents.
func register(e *env) (*prepared, error) {
	p := &prepared{rootsOf: map[object.OID][]object.OID{}}
	seenComp := map[object.OID]bool{}
	for _, root := range e.db.Roots {
		var walk func(oid object.OID) error
		seen := map[object.OID]bool{}
		walk = func(oid object.OID) error {
			if oid.IsNil() || seen[oid] {
				return nil
			}
			seen[oid] = true
			if !seenComp[oid] {
				seenComp[oid] = true
				p.comps = append(p.comps, oid)
			}
			rs := p.rootsOf[oid]
			if len(rs) == 0 || rs[len(rs)-1] != root {
				p.rootsOf[oid] = append(rs, root)
			}
			o, err := e.db.Store.Get(oid)
			if err != nil {
				return err
			}
			for _, ref := range o.Refs {
				if err := walk(ref); err != nil {
					return err
				}
			}
			return nil
		}
		if err := walk(root); err != nil {
			return nil, err
		}
	}
	sort.Slice(p.comps, func(a, b int) bool { return p.comps[a] < p.comps[b] })
	return p, nil
}

// mutateComponents updates MutateCount components in place and returns
// the affected roots in deterministic order — the set the standing
// query must re-assemble. Runs inside the measured phase: the reads
// and in-place writes are part of the workload.
func mutateComponents(sc Scenario, e *env, prep *prepared) ([]object.OID, error) {
	rng := rand.New(rand.NewSource(sc.Seed + 2))
	affected := map[object.OID]bool{}
	for i := 0; i < sc.MutateCount; i++ {
		oid := prep.comps[rng.Intn(len(prep.comps))]
		o, err := e.db.Store.Get(oid)
		if err != nil {
			return nil, err
		}
		o.Ints[1] = int32(rng.Intn(1000))
		if err := e.db.Store.Update(o); err != nil {
			return nil, err
		}
		for _, root := range prep.rootsOf[oid] {
			affected[root] = true
		}
	}
	roots := make([]object.OID, 0, len(affected))
	for r := range affected {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(a, b int) bool { return roots[a] < roots[b] })
	return roots, nil
}
