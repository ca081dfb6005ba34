package assembly

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"revelation/internal/buffer"
	"revelation/internal/disk"
	"revelation/internal/metrics"
	"revelation/internal/object"
	"revelation/internal/page"
	"revelation/internal/qtrace"
	"revelation/internal/trace"
	"revelation/internal/volcano"
)

// Options configure an assembly operator.
type Options struct {
	// Window is W, the number of complex objects assembled
	// simultaneously (Section 4's sliding assembly). Values < 1 mean 1
	// — plain object-at-a-time capacity.
	Window int
	// Scheduler picks the policy for choosing the next unresolved
	// reference (Section 6.2).
	Scheduler SchedulerKind
	// PredicateFirst layers the Section 7 predicate-aware tiering on
	// top of the base policy: references that can reject a complex
	// object are resolved first.
	PredicateFirst bool
	// UseSharingStats enables the shared-component table driven by the
	// template's sharing statistics (Sections 5 and 6.4): shared
	// components assemble once, stay buffered, and later references
	// link without I/O. When false, sharing degrades to whatever the
	// buffer happens to cache.
	UseSharingStats bool
	// CustomScheduler overrides Scheduler/PredicateFirst entirely. It
	// serves one operator at a time; Close empties a built-in elevator.
	CustomScheduler Scheduler
	// PinWindowPages keeps the pages backing partially assembled
	// complex objects pinned in the buffer until the object is passed
	// up, reproducing the paper's buffer economics ("a cost of using
	// the sliding assembly operator is the need for enough buffer
	// space to hold W partially assembled objects", Section 4). When
	// the pool runs low, admission of new complex objects pauses — the
	// effective window shrinks to what the buffer sustains (the
	// Section 7 window/buffer tuning).
	PinWindowPages bool
	// PageBatch resolves every pending reference that lives on a page
	// with one buffer request while the page is fixed — Section 4's
	// "only a single request should be issued to the buffer manager",
	// worth it because "even buffer hits can be expensive" (footnote 5).
	PageBatch bool
	// ShardPrefetch, with a BatchScheduler (e.g. NewShardElevator over a
	// shard.Router), fetches a run of references per shard lane per
	// step: the scheduler hands out a batch — a few SCAN steps per shard
	// — the operator warms the buffer with the batch's pages, each lane's
	// run one request to its device, all lanes out at once and each under
	// its shard's qtrace span (see prefetchBatch), and then resolves the
	// batch sequentially through the unchanged fault paths. Each lane has
	// at most one run in flight at a time, so per-shard access order (and
	// thus replay determinism per shard) is preserved; what the pool does
	// with the pages is decided in lane order, never in the order the
	// lanes answer.
	ShardPrefetch bool
	// FaultPolicy selects how the operator reacts to I/O errors while
	// fetching referenced components. The default (FailFast) is the
	// paper's implicit behavior: any error aborts the whole operator.
	FaultPolicy FaultPolicy
	// Metrics, when non-nil, receives the operator's counters and live
	// gauges under asm_assembly_* families labeled by scheduling policy.
	// The per-run Stats struct is published into the registry's cells
	// per object (admission, retirement, emission) and at Close, so
	// counters accumulate monotonically across runs while Stats stays
	// per-run exact; nil costs the operator nothing per reference.
	Metrics *metrics.Registry
	// ReserveFrames, when > 0, reserves that many buffer frames at Open
	// as the query's admission quota and releases them at Close. Open
	// fails with buffer.ErrAdmission when the pool cannot accommodate
	// the quota — the load-shed signal for the serve layer. A query's
	// worst-case working set is roughly Window*Template.Nodes() pages
	// plus transient-fix headroom.
	ReserveFrames int
}

// ErrShed marks a query aborted by overload rather than by a device
// fault or its own predicate: the buffer could not sustain even the
// minimum window and waiting is pointless. Callers should treat it like
// an admission rejection (e.g. HTTP 503).
var ErrShed = errors.New("assembly: query shed under overload")

// FaultPolicy is the operator's reaction to a failed component fetch.
type FaultPolicy int

// Fault policies.
const (
	// FailFast surfaces the first fetch error from Next, losing the
	// whole window — the pre-fault-tolerance behavior.
	FailFast FaultPolicy = iota
	// SkipObject quarantines only the complex object whose reference
	// failed: the object is discarded with its pins released and
	// counted in Stats.Skipped while the rest of the window proceeds.
	SkipObject
	// RetryFaults retries transiently failed references (at most
	// maxRefRetries times each). Permanent faults quarantine the complex object
	// immediately (as SkipObject); a transient fault that outlives the
	// retry budget surfaces as an error instead — the page is not
	// poisoned, because the fault is in the path to the device (e.g. a
	// flapping network connection), not in the page.
	RetryFaults
)

// maxRefRetries bounds per-reference retries under RetryFaults.
// Exhausting it on a still-transient error surfaces the error; only
// permanent faults quarantine.
const maxRefRetries = 3

func (p FaultPolicy) String() string {
	switch p {
	case SkipObject:
		return "skip-object"
	case RetryFaults:
		return "retry"
	default:
		return "fail-fast"
	}
}

// Stats reports what one operator run did.
type Stats struct {
	Assembled      int // complex objects emitted
	Aborted        int // complex objects abandoned by a predicate
	Resolved       int // references resolved (fetches + shared links)
	Fetched        int // objects materialized from storage
	PageRequests   int // buffer requests issued for those fetches
	SharedLinks    int // references satisfied from assembled instances
	PredicateFails int
	NilRefs        int // references that were the nil OID
	PeakRefPool    int // largest unresolved-reference pool observed
	PeakWindowPgs  int // peak distinct pages backing the window
	Skipped        int // complex objects quarantined by I/O faults
	FaultRetries   int // reference fetches re-queued after transient faults
	WindowStalls   int // admission pauses forced by buffer exhaustion
}

// Operator is the assembly operator: a Volcano physical operator that
// consumes root references and produces assembled, pointer-swizzled
// complex objects (*Instance items).
//
// Accepted input item types:
//
//   - object.OID: a root reference.
//   - *object.Object: an already-fetched root object.
//   - *Instance: a partially assembled complex object built against
//     *this operator's template tree*; its unresolved frontier is
//     scheduled (Section 4's "partially assembled" case).
//   - PartialRoot: a root OID plus pre-assembled sub-objects from an
//     upstream (stacked) assembly operator, linked by OID when reached
//     (Fig. 17).
type Operator struct {
	Input    volcano.Iterator
	Store    *object.Store
	Template *Template
	Opts     Options

	sched  Scheduler
	shared *sharedTable
	// tr is the pool's tracer, taken at Open: it receives an assembly
	// event for every window admission, scheduling decision, fetch,
	// link, emission, abort, quarantine, retry and stall, into the
	// stream the pool and its device trace into. Nil costs one branch
	// per instrumentation point.
	tr *trace.Tracer
	// live holds the window's slots, each at index workItem.slot, in
	// admission order except that a retiring slot's place goes to the
	// newest one. Whatever walks it — an abort, a shed, Close — does so
	// in an order the run's inputs decide, the same every time.
	live      []*workItem
	inputDone bool
	outq      []*workItem
	// footprint counts, by page id, the live items a page backs;
	// windowPages is how many pages back any.
	footprint   []int32
	windowPages int
	stats       Stats
	cells       opCells
	open        bool
	// pressure marks buffer exhaustion: admission pauses (the
	// effective window shrinks) until pins drain at the next emission
	// or quarantine.
	pressure bool
	// stall counts consecutive fault absorptions without assembly
	// progress; it guards the requeue loop against livelock when the
	// buffer can never satisfy the remaining references.
	stall int
	// ctx is the query lifecycle: checked at every scheduling step,
	// bounds pin waits, and drives the abort path. Nil means unbounded
	// (the pre-lifecycle behavior).
	ctx context.Context
	// qspan is the operator's per-query span (see internal/qtrace),
	// opened at Open under the span carried in ctx; qctx carries it to
	// the buffer and storage layers so fetches, hits, misses, and
	// device seeks attribute to this query. Both are nil (no-ops) when
	// the query is untraced. qid stamps every assembly trace event.
	qspan *qtrace.Span
	qctx  context.Context
	qid   uint64
	// batcher is the scheduler's batch interface when ShardPrefetch is
	// on; batchq holds the tail of the current batch (already
	// prefetched, resolved one per scheduling step). laneSpans/laneCtxs
	// attribute each lane's prefetch I/O to a per-shard child span of a
	// traced query;
	// lanes are the goroutines that make those reads beside the
	// operator's own, alive from Open to Close; batchIDs/batchRuns carry
	// a batch to the pool.
	batcher   BatchScheduler
	batchq    []*Ref
	laneSpans []*qtrace.Span
	laneCtxs  []context.Context
	lanes     *buffer.Lanes
	batchIDs  []disk.PageID
	batchRuns []buffer.Run
	// reservation is the frame quota admitted at Open (ReserveFrames).
	reservation *buffer.Reservation
	// scratch carries references to the scheduler — one component's
	// unresolved ones, or a single root — which does not keep the slice;
	// it is cleared after every use.
	scratch []*Ref
	// shape sizes every window slot's arena; spares are the cleared
	// scratch of emitted items, for the next admissions; chunk is the
	// rest of the query's chunk of fresh scratch (see freshScratch);
	// slots is the rest of the current chunk of window slots (newItem).
	shape  arenaShape
	spares []spare
	chunk  spare
	slots  []workItem
	// decode is decodeRec bound once at Open, so a fetch hands
	// heap.File.Get no fresh closure; fetch is its in (the item to
	// carve from, whether the component lives on its own) and out.
	decode func(rec []byte) error
	fetch  struct {
		item *workItem
		own  bool
		got  *component
	}
}

// BindContext implements volcano.ContextBinder: the operator observes
// ctx at every scheduling step and aborts the whole window — unpinning,
// draining quarantine bookkeeping, emitting abort events — when the
// query is cancelled or its deadline passes.
func (op *Operator) BindContext(ctx context.Context) { op.ctx = ctx }

// workItem is one window slot: a complex object being assembled.
type workItem struct {
	root    *Instance
	pending int
	aborted bool
	emitted bool
	slot    int32 // position in Operator.live (in the bools' word: the struct stays its size)
	// pre holds stacked-input sub-assemblies not yet reached.
	pre map[object.OID]*Instance
	// assembled lists the OIDs already assembled within this complex
	// object, for intra-object sharing ("multiple, possibly shared,
	// object references contained within a single object", Section 4).
	// Only shared template nodes and adopted subtrees write it (through
	// remember); it is sized for the template's shared nodes.
	assembled []assembledAs
	// pages is the item's window footprint: distinct pages, a handful.
	pages []disk.PageID
	// frames are the buffer pins held for this item when
	// PinWindowPages is on.
	frames []*buffer.Frame
	arena  arena
}

// assembledAs is one entry of workItem.assembled.
type assembledAs struct {
	oid  object.OID
	inst *Instance
}

// remember records inst as assembled within this complex object.
func (item *workItem) remember(oid object.OID, inst *Instance) {
	old := item.assembled
	item.assembled = append(item.assembled, assembledAs{oid, inst})
	if len(old) == cap(old) {
		// Grown: the old list may be part of the query's chunk, which
		// lives until Close, so it keeps no instance.
		clear(old)
	}
}

// recall finds the instance last remembered for oid, or nil.
func (item *workItem) recall(oid object.OID) *Instance {
	for i := len(item.assembled) - 1; i >= 0; i-- {
		if item.assembled[i].oid == oid {
			return item.assembled[i].inst
		}
	}
	return nil
}

// New builds an assembly operator.
func New(input volcano.Iterator, store *object.Store, tmpl *Template, opts Options) *Operator {
	return &Operator{Input: input, Store: store, Template: tmpl, Opts: opts}
}

// Stats returns the operator's counters (valid after Open).
func (op *Operator) Stats() Stats { return op.stats }

// PlanNode implements volcano.PlanNoder, so assembly plans render in
// volcano.Explain output.
func (op *Operator) PlanNode() (string, []volcano.Iterator) {
	window := op.Opts.Window
	if window < 1 {
		window = 1
	}
	name := op.Opts.Scheduler.String()
	if op.Opts.CustomScheduler != nil {
		name = op.Opts.CustomScheduler.Name()
	} else if op.Opts.PredicateFirst {
		name = "predicate-first/" + name
	}
	label := fmt.Sprintf("assembly(%s, window %d, template %q %d nodes)",
		name, window, op.Template.Name, op.Template.Nodes())
	return label, []volcano.Iterator{op.Input}
}

// Open implements volcano.Iterator.
func (op *Operator) Open() error {
	if op.Template == nil {
		return errors.New("assembly: no template")
	}
	if err := op.Template.Validate(op.Store.Catalog); err != nil {
		return err
	}
	switch {
	case op.Opts.CustomScheduler != nil:
		op.sched = op.Opts.CustomScheduler
	case op.Opts.PredicateFirst:
		op.sched = NewPredicateFirst(op.Opts.Scheduler)
	default:
		op.sched = NewScheduler(op.Opts.Scheduler)
	}
	if le, ok := op.sched.(*LaneElevator); ok {
		if d, ok := op.Store.File.Pool().Device().(interface{ HeadOf(int) (disk.PageID, bool) }); ok {
			le.heads = d.HeadOf
		}
	}
	if op.Opts.UseSharingStats {
		op.shared = &sharedTable{pool: op.Store.File.Pool(), entries: map[object.OID]sharedEntry{}}
	}
	op.tr = op.Store.File.Pool().Tracer()
	// Items live, queued for emission or spare never outnumber the
	// window (recycle makes a spare), so none of the three lists grows.
	window := max(op.Opts.Window, 1)
	op.live = make([]*workItem, 0, window)
	op.inputDone = false
	op.outq = make([]*workItem, 0, window)
	op.spares = make([]spare, 0, window)
	op.chunk = spare{}
	op.footprint = make([]int32, op.Store.File.Pool().Device().NumPages())
	op.windowPages = 0
	op.shape = arenaShape{}
	op.shape.measure(op.Template, op.shared != nil, false)
	op.decode = op.decodeRec
	op.stats = Stats{}
	op.cells.bind(op.Opts.Metrics, op.sched.Name())
	op.publish()
	op.pressure = false
	op.stall = 0
	op.qspan, op.qctx = qtrace.Start(op.ctx, qtrace.LayerAssembly, "assemble")
	op.qid = op.qspan.QID()
	op.batcher = nil
	op.batchq = nil
	if op.Opts.ShardPrefetch {
		b, ok := op.sched.(BatchScheduler)
		if !ok {
			return fmt.Errorf("assembly: ShardPrefetch needs a batch-capable scheduler, got %s", op.sched.Name())
		}
		op.batcher = b
	}
	if op.Opts.ReserveFrames > 0 {
		r, err := op.Store.File.Pool().Reserve(op.Opts.ReserveFrames)
		if err != nil {
			return err
		}
		op.reservation = r
	}
	if err := op.Input.Open(); err != nil {
		op.reservation.Release()
		op.reservation = nil
		op.qspan.End()
		return err
	}
	// Last, so that no failing path of Open has lane spans to end or
	// workers to stop.
	if b := op.batcher; b != nil {
		if op.qspan != nil { // untraced, a lane's reads go under op.qctx
			op.laneSpans = make([]*qtrace.Span, b.Lanes())
			op.laneCtxs = make([]context.Context, b.Lanes())
			for i := range op.laneSpans {
				sp := op.qspan.StartChild(qtrace.LayerAssembly, fmt.Sprintf("shard%d", i))
				op.laneSpans[i], op.laneCtxs[i] = sp, qtrace.With(op.qctx, sp)
			}
		}
		op.lanes = op.Store.File.Pool().StartLanes(b.Lanes() - 1)
	}
	op.open = true
	return nil
}

// Next implements volcano.Iterator: it returns the next fully
// assembled complex object as an *Instance.
func (op *Operator) Next() (volcano.Item, error) {
	if !op.open {
		return nil, volcano.ErrNotOpen
	}
	window := max(op.Opts.Window, 1)
	for {
		// The query lifecycle gates every scheduling step: a dead
		// context aborts the whole window before any more work runs.
		if op.ctx != nil {
			if err := op.ctx.Err(); err != nil {
				return nil, op.fail(err)
			}
		}
		// Emit an assembled complex object as soon as one is ready:
		// "as soon as any one of these complex objects becomes
		// assembled and passed up the query tree, the operator
		// retrieves another one to work on" (Section 4).
		if len(op.outq) > 0 {
			item := op.outq[0]
			n := copy(op.outq, op.outq[1:])
			op.outq[n] = nil
			op.outq = op.outq[:n]
			op.releaseFootprint(item)
			// Emission drains this item's pins: buffer pressure (if
			// any) clears and admission may resume at full window.
			op.pressure = false
			op.stall = 0
			if err := op.unpinFrames(item); err != nil {
				return nil, op.fail(err)
			}
			root := item.root
			op.recycle(item)
			return root, nil
		}
		// Keep the window full — unless pinned window pages are
		// exhausting the buffer, in which case the effective window
		// shrinks to what the pool sustains.
		for len(op.live) < window && !op.inputDone && op.admissionAllowed() {
			if err := op.admit(); err != nil {
				return nil, op.fail(err)
			}
		}
		if len(op.live) == 0 {
			// Admission may have completed objects (an adopted whole
			// tree): they leave before Done.
			if op.inputDone && len(op.outq) == 0 {
				return nil, volcano.Done
			}
			continue
		}
		head := op.Store.File.Pool().Device().Head()
		ref := op.nextRef(head)
		if ref == nil {
			// All live items' references were consumed but none
			// completed: impossible unless bookkeeping broke.
			return nil, fmt.Errorf("assembly: %d live complex objects with no pending references", len(op.live))
		}
		if !ref.live() {
			continue
		}
		// The policy decision: which reference the scheduler picked
		// given the head position — the choice the whole paper is about.
		if op.tr != nil {
			op.tr.Assembly(trace.KindChoose, uint64(ref.OID), int64(ref.RID.Page), int64(head), op.sched.Name(), op.qid)
		}
		if err := op.resolve(ref); err != nil {
			return nil, op.fail(err)
		}
	}
}

// Close implements volcano.Iterator. Pin-release failures are joined
// with the input's close error instead of being dropped.
func (op *Operator) Close() error {
	op.open = false
	op.publish()
	var errs []error
	for _, item := range op.live {
		if err := op.unpinFrames(item); err != nil {
			errs = append(errs, err)
		}
	}
	op.live = nil
	for _, item := range op.outq {
		if err := op.unpinFrames(item); err != nil {
			errs = append(errs, err)
		}
	}
	op.outq = nil
	op.spares = nil
	op.chunk = spare{}
	op.slots = nil
	if s, ok := op.sched.(interface{ release() }); ok {
		s.release() // an elevator's leaves go to the next query's
	}
	op.sched = nil
	op.shared = nil
	op.batcher = nil
	op.batchq = nil
	op.lanes.Stop()
	op.lanes = nil
	for _, sp := range op.laneSpans {
		sp.End()
	}
	op.laneSpans, op.laneCtxs = nil, nil
	op.qspan.End()
	// The admission quota returns to the pool on every exit path, error
	// or not — a leaked reservation would shed later queries forever.
	op.reservation.Release()
	op.reservation = nil
	errs = append(errs, op.Input.Close())
	return errors.Join(errs...)
}

// nextRef is the scheduling step. Without a batch scheduler it simply
// asks the policy for the next reference. With ShardPrefetch on it
// pulls a run of SCAN steps per shard lane, warms the buffer with the
// runs' pages, and then serves the batch one reference at
// a time — so every reference still flows through the ordinary resolve
// and fault paths, with the page (usually) already resident.
func (op *Operator) nextRef(head disk.PageID) *Ref {
	if op.batcher == nil {
		return op.sched.Next(head)
	}
	for len(op.batchq) > 0 {
		r := op.batchq[0]
		op.batchq = op.batchq[1:]
		if r.live() {
			return r
		}
	}
	batch := op.batcher.NextBatch(head)
	if len(batch) == 0 {
		return nil
	}
	op.prefetchBatch(batch)
	op.batchq = batch[1:]
	return batch[0]
}

// prefetchBatch warms the buffer with the batch's pages, one run per
// shard lane, each attributed to its lane's qtrace span: one
// Pool.FixBatch, whose device reads are out together — one run on this
// goroutine, the others on op.lanes — so every arm of the fleet works at
// once (Section 7), and each run one request to its device. The workers
// live as long as the query: a goroutine per read starts on the
// runtime's small initial stack, which the chain below the pool — shard
// router, page-service client, net, syscall — outgrows, and paid a stack
// copy per read (EXPERIMENTS.md "One replica path"). The pool takes the
// runs highest lane first, whichever lane answers first, and a run's
// pages in the order its arm visits them. No more of the batch is read
// ahead than the pool has unpinned frames for: past that a page read
// now would push out one read a moment ago, before its reference was
// resolved. Errors are dropped on purpose: the sequential resolve that
// follows re-encounters any fault through the full fault-policy
// machinery (retry budgets, quarantine, breaker-aware failover), so the
// prefetch can stay purely an optimisation. The batch holds no pins of
// its own.
func (op *Operator) prefetchBatch(batch []*Ref) {
	pool := op.Store.File.Pool()
	if room := pool.Size() - pool.PinnedFrames(); len(batch) > room {
		batch = batch[:max(room, 0)]
	}
	if len(batch) < 2 {
		return
	}
	ids, runs := op.batchIDs[:0], op.batchRuns[:0]
	for _, r := range batch {
		ids = append(ids, r.RID.Page)
	}
	for hi := len(batch); hi > 0; {
		lane, lo := batch[hi-1].lane, hi-1
		for lo > 0 && batch[lo-1].lane == lane {
			lo--
		}
		ctx := op.qctx
		if int(lane) < len(op.laneCtxs) {
			ctx = op.laneCtxs[lane]
		}
		runs = append(runs, buffer.Run{Ctx: ctx, IDs: ids[lo:hi]})
		hi = lo
	}
	op.batchIDs, op.batchRuns = ids, runs
	pool.FixBatch(runs, op.lanes)
}

// admissionAllowed gates window growth on buffer headroom when window
// pages are pinned. A lone complex object is always admitted so the
// operator can make progress. Under buffer pressure (an observed
// ErrNoFrames) admission also pauses until pins drain — the effective
// window shrinks to what the pool sustains and recovers afterwards.
func (op *Operator) admissionAllowed() bool {
	if op.pressure && len(op.live) > 0 {
		return false
	}
	if !op.Opts.PinWindowPages || len(op.live) == 0 {
		return true
	}
	pool := op.Store.File.Pool()
	// Budget by worst case, not by current pins: every live object may
	// still pin up to one page per component, and transient fixes
	// (heap gets, index descents) need headroom.
	const headroom = 8
	perItem := op.Template.Nodes()
	return (len(op.live)+1)*perItem+headroom <= pool.Size()
}

// pinPage pins the page backing a freshly fetched component for the
// item's lifetime. Pool exhaustion downgrades gracefully: the page
// simply stays unpinned and may be re-read later, and while the window
// is under buffer pressure no new pins are taken at all.
func (op *Operator) pinPage(item *workItem, pg disk.PageID) {
	if !op.Opts.PinWindowPages || op.pressure {
		return
	}
	f, err := op.Store.File.Pool().FixAs(op.qctx, pg)
	if err != nil {
		return
	}
	item.frames = append(item.frames, f)
}

// unpinFrames releases every buffer pin the item holds. An Unfix
// failure means double-release — a bookkeeping bug — so it propagates
// through the operator's error return instead of being lost; every
// frame is still visited so one bad pin cannot strand the rest.
func (op *Operator) unpinFrames(item *workItem) error {
	pool := op.Store.File.Pool()
	var errs []error
	for _, f := range item.frames {
		if err := pool.Unfix(f, false); err != nil {
			errs = append(errs, fmt.Errorf("assembly: release window pin: %w", err))
		}
	}
	item.frames = nil
	return errors.Join(errs...)
}

// shedPins releases every window pin held by live items. It is the
// operator's response to buffer exhaustion: instances own decoded
// copies of their records, so pins only keep the window's working set
// resident — dropping them costs re-reads, never correctness. The
// freed frames let the stalled fetches proceed; pinning resumes once
// pressure clears at the next emission.
func (op *Operator) shedPins() error {
	var errs []error
	for _, item := range op.live {
		if len(item.frames) == 0 {
			continue
		}
		if err := op.unpinFrames(item); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// admit pulls the next root from the input and opens a window slot for
// it. It sets inputDone at end of input.
func (op *Operator) admit() error {
	raw, err := op.Input.Next()
	if errors.Is(err, volcano.Done) {
		op.inputDone = true
		return nil
	}
	if err != nil {
		return err
	}
	item := op.newItem()
	// Count the slot live up front so an abort during admission (a
	// root-level predicate failure) balances the books.
	item.slot = int32(len(op.live))
	op.live = append(op.live, item)
	op.publish()
	switch v := raw.(type) {
	case object.OID:
		if v.IsNil() {
			op.retire(item) // nil root: nothing to assemble
			return nil
		}
		op.tr.Assembly(trace.KindAdmit, uint64(v), trace.NoPage, trace.NoPage, "", op.qid)
		if err := op.scheduleRef(item, nil, 0, op.Template, v); err != nil {
			return err
		}
	case *object.Object:
		op.tr.Assembly(trace.KindAdmit, uint64(v.OID), trace.NoPage, trace.NoPage, "", op.qid)
		c := item.arena.newComponent(op.ownLifetime(nil, op.Template), 0, 0)
		c.inst.Object = v
		if _, err := op.place(item, nil, 0, op.Template, &c.inst, op.pageOf(v.OID)); err != nil {
			return err
		}
	case *Instance:
		op.tr.Assembly(trace.KindAdmit, uint64(v.OID()), trace.NoPage, trace.NoPage, "", op.qid)
		if err := op.adopt(item, v); err != nil {
			return err
		}
	case PartialRoot:
		if v.Root.IsNil() {
			op.retire(item)
			return nil
		}
		op.tr.Assembly(trace.KindAdmit, uint64(v.Root), trace.NoPage, trace.NoPage, "", op.qid)
		item.pre = v.Sub
		if err := op.scheduleRef(item, nil, 0, op.Template, v.Root); err != nil {
			return err
		}
	default:
		op.retire(item)
		return fmt.Errorf("assembly: unsupported input item type %T", raw)
	}
	op.settle(item)
	return nil
}

// adopt takes a partially assembled complex object built against this
// operator's template and schedules its unresolved frontier: "when a
// partially assembled sub-object is discovered, the operator finds all
// unresolved references within it" (Section 4).
func (op *Operator) adopt(item *workItem, root *Instance) error {
	item.root = root
	return op.adoptSubtree(item, root, true)
}

// prepareRef resolves the OID's physical address and accounts the
// pending reference; the caller dispatches prepared references to the
// scheduler in batches so sibling order is preserved.
func (op *Operator) prepareRef(item *workItem, parent *Instance, slot int, node *Template, oid object.OID) (*Ref, error) {
	rid, ok, err := op.Store.WhereIs(oid)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("assembly: dangling reference %v (template node %q)", oid, node.Name)
	}
	item.pending++
	propagatePending(parent, +1)
	r := item.arena.newRef()
	*r = Ref{OID: oid, RID: rid, Node: node, Parent: parent, Slot: int32(slot), Item: item}
	return r, nil
}

// dispatch hands a batch of prepared references (one fetched object's
// unresolved references, in left-to-right field order) to the
// scheduler.
func (op *Operator) dispatch(refs ...*Ref) {
	if len(refs) == 0 {
		return
	}
	if op.tr != nil {
		for _, r := range refs {
			op.tr.Assembly(trace.KindPend, uint64(r.OID), int64(r.RID.Page), trace.NoPage, "", op.qid)
		}
	}
	op.sched.Add(refs...)
	if n := op.sched.Len(); n > op.stats.PeakRefPool {
		op.stats.PeakRefPool = n
	}
}

// scheduleRef prepares and immediately dispatches a single reference.
func (op *Operator) scheduleRef(item *workItem, parent *Instance, slot int, node *Template, oid object.OID) error {
	r, err := op.prepareRef(item, parent, slot, node, oid)
	if err != nil {
		return err
	}
	op.dispatchOne(r)
	return nil
}

// dispatchOne is dispatch for a single reference.
func (op *Operator) dispatchOne(r *Ref) {
	op.scratch = append(op.scratch[:0], r)
	op.dispatch(op.scratch...)
	op.scratch[0] = nil
}

// propagatePending adjusts the unresolved-descendant counters along
// the parent chain; a shared subtree registers in the window-wide
// table exactly when its counter returns to zero (it is complete).
func propagatePending(parent *Instance, delta int32) {
	for p := parent; p != nil; p = p.Parent {
		p.pendingDesc += delta
	}
}

// maybeRegisterShared registers inst and any newly completed shared
// ancestors in the shared table.
func (op *Operator) maybeRegisterShared(inst *Instance) {
	if op.shared == nil {
		return
	}
	for p := inst; p != nil; {
		if p.pendingDesc != 0 {
			break
		}
		parent := p.Parent
		if p.Node.Shared && !p.registered {
			p.registered = true
			p.Parent = nil // see Instance.Parent
			op.shared.register(p, p.Node)
		}
		p = parent
	}
}

// resolve is one scheduling step. Without page batching it handles the
// single reference; with PageBatch on it also drains every other
// pending reference on the same page while that page is fixed once —
// "if requested objects are contained in a single page, then only a
// single request should be issued to the buffer manager" (Section 4).
func (op *Operator) resolve(ref *Ref) error {
	if !op.Opts.PageBatch {
		return op.resolveOne(ref, nil)
	}
	batch := append([]*Ref{ref}, op.sched.TakeOnPage(ref.RID.Page)...)
	if op.tr != nil {
		// The first ref already traced as the scheduler's choice; the
		// rest of the batch drained with it on the single page fix.
		for _, r := range batch[1:] {
			op.tr.Assembly(trace.KindTake, uint64(r.OID), int64(r.RID.Page), trace.NoPage, "", op.qid)
		}
	}
	pool := op.Store.File.Pool()
	fr, err := pool.FixAs(op.qctx, ref.RID.Page)
	if err != nil {
		return op.batchFault(batch, fmt.Errorf("assembly: fix page %d: %w", ref.RID.Page, err))
	}
	op.notePageRequest()
	pg := page.Wrap(fr.Data())
	for _, r := range batch {
		if !r.live() {
			continue
		}
		if err := op.resolveOne(r, pg); err != nil {
			pool.Unfix(fr, false)
			return err
		}
	}
	return pool.Unfix(fr, false)
}

// resolveOne fetches or links one referenced component, swizzles it
// into its parent, evaluates predicates, discovers new unresolved
// references, and detects completion. When pg is non-nil the record is
// read from that already-fixed page instead of issuing a new buffer
// request.
func (op *Operator) resolveOne(ref *Ref, pg *page.Page) error {
	item := ref.Item
	item.pending--
	op.stats.Resolved++

	// 1. Already assembled within this complex object (intra-object
	// sharing)? Only shared template nodes pay the lookup, exactly as
	// Section 5 prescribes for non-sharable components.
	if ref.Node.Shared {
		if inst := item.recall(ref.OID); inst != nil {
			op.linkAt(item, ref.Parent, int(ref.Slot), inst)
			propagatePending(ref.Parent, -1)
			op.maybeRegisterShared(ref.Parent)
			op.noteLink(ref, "intra")
			op.settle(item)
			return nil
		}
		// 2. Assembled by another complex object in the window?
		if op.shared != nil {
			if inst, ok := op.shared.lookup(ref.OID); ok {
				op.linkAt(item, ref.Parent, int(ref.Slot), inst)
				propagatePending(ref.Parent, -1)
				op.maybeRegisterShared(ref.Parent)
				item.remember(ref.OID, inst)
				op.noteFootprint(item, inst.page)
				op.noteLink(ref, "window")
				op.settle(item)
				return nil
			}
		}
	}
	// 3. Pre-assembled by an upstream stacked operator?
	if item.pre != nil {
		if inst, ok := item.pre[ref.OID]; ok {
			delete(item.pre, ref.OID)
			op.linkAt(item, ref.Parent, int(ref.Slot), inst)
			op.noteLink(ref, "stacked")
			// The pre-assembled subtree may itself be partial: walk it
			// for unresolved references and account its members.
			if err := op.adoptSubtree(item, inst, false); err != nil {
				return err
			}
			propagatePending(ref.Parent, -1)
			op.maybeRegisterShared(ref.Parent)
			op.settle(item)
			return nil
		}
	}
	// 4. Fetch from storage — through the buffer, or straight off the
	// already-fixed page when batching — decoding into the item's arena.
	op.fetch.item, op.fetch.own = item, op.ownLifetime(ref.Parent, ref.Node)
	var err error
	if pg != nil {
		rec, gerr := pg.Get(ref.RID.Slot)
		if gerr != nil {
			err = fmt.Errorf("assembly: fetch %v from fixed page: %w", ref.OID, gerr)
		} else if derr := op.decodeRec(rec); derr != nil {
			err = fmt.Errorf("assembly: decode %v: %w", ref.OID, derr)
		}
	} else if gerr := op.Store.File.Get(op.qctx, ref.RID, op.decode); gerr != nil {
		err = fmt.Errorf("assembly: fetch %v: %w", ref.OID, gerr)
	} else {
		op.notePageRequest()
	}
	c := op.fetch.got
	op.fetch.item, op.fetch.got = nil, nil
	if err != nil {
		return op.refFault(ref, err)
	}
	op.stats.Fetched++
	op.qspan.OnFetch()
	if op.tr != nil {
		op.tr.Assembly(trace.KindFetch, uint64(ref.OID), int64(ref.RID.Page), trace.NoPage, "", op.qid)
	}
	op.pinPage(item, ref.RID.Page)
	inst, err := op.place(item, ref.Parent, int(ref.Slot), ref.Node, &c.inst, ref.RID.Page)
	if err != nil {
		return err
	}
	propagatePending(ref.Parent, -1)
	if inst != nil {
		op.maybeRegisterShared(inst)
	}
	op.settle(item)
	return nil
}

// refFault reacts to a failed component fetch for ref, whose pending
// count has already been consumed. It returns nil when the fault was
// absorbed — the reference re-queued or the complex object
// quarantined — and the error itself when it must surface (FailFast,
// or a stalled buffer with no possible progress).
func (op *Operator) refFault(ref *Ref, cause error) error {
	item := ref.Item
	if item == nil || item.aborted {
		// A stale reference of an already-dead item: nothing to do.
		return nil
	}
	// Buffer exhaustion is congestion, not a device fault: shrink the
	// effective window — stop admitting, shed window pins (they are a
	// working-set optimisation, never a correctness requirement) — and
	// retry the reference, whatever the fault policy. The stall counter
	// catches the hopeless case — a buffer that cannot sustain even
	// unpinned assembly — after a full pass over the pending pool
	// without any assembly progress.
	if errors.Is(cause, buffer.ErrNoFrames) {
		op.stall++
		if op.stall > 2*(op.sched.Len()+len(op.live))+4 {
			return fmt.Errorf("assembly: window stalled, buffer cannot hold a single complex object: %w: %w", ErrShed, cause)
		}
		if !op.pressure {
			op.pressure = true
			op.stats.WindowStalls++
			op.qspan.OnStall()
			op.tr.Assembly(trace.KindStall, 0, trace.NoPage, trace.NoPage, "", op.qid)
		}
		if err := op.shedPins(); err != nil {
			return err
		}
		// With its own pins shed, the operator now waits — bounded by
		// the query's deadline — for another query's unfix instead of
		// spin-requeueing against a still-full pool. A dead context
		// surfaces here and aborts the lifecycle upstream.
		if op.ctx != nil {
			if werr := op.Store.File.Pool().WaitFrame(op.ctx); werr != nil {
				return fmt.Errorf("assembly: pin wait: %w", werr)
			}
		}
		item.pending++
		op.dispatchOne(ref)
		return nil
	}
	switch op.Opts.FaultPolicy {
	case RetryFaults:
		if disk.Retryable(cause) {
			if int(ref.Attempts) < maxRefRetries {
				ref.Attempts++
				op.stats.FaultRetries++
				op.qspan.OnRefRetry()
				op.tr.Assembly(trace.KindRetry, uint64(ref.OID), int64(ref.RID.Page), trace.NoPage, "", op.qid)
				item.pending++
				op.dispatchOne(ref)
				return nil
			}
			// The retry budget ran out but the fault is still transient
			// — a flapping connection, not a dead page. Quarantine is
			// reserved for pages the device has declared unrecoverable;
			// poisoning this object would wrongly pin the blame on it,
			// so the error surfaces to the caller instead.
			return cause
		}
		return op.quarantine(item)
	case SkipObject:
		return op.quarantine(item)
	default:
		return cause
	}
}

// batchFault spreads a page-level failure (the PageBatch fix failed)
// over every reference that was waiting on the page. Each live
// reference consumes its pending count and goes through refFault.
func (op *Operator) batchFault(batch []*Ref, cause error) error {
	var first error
	for _, r := range batch {
		if !r.live() {
			continue
		}
		r.Item.pending--
		if err := op.refFault(r, cause); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// decodeRec is the record callback of a fetch (see Operator.decode): it
// carves a component sized for rec and decodes rec into it.
func (op *Operator) decodeRec(rec []byte) error {
	nInts, nRefs, err := object.Shape(rec)
	if err != nil {
		return err
	}
	op.fetch.got = op.fetch.item.arena.newComponent(op.fetch.own, nInts, nRefs)
	return object.DecodeInto(rec, &op.fetch.got.blk.Object)
}

// ownLifetime reports whether the component for node under parent must
// be allocated on its own instead of in its item's arena: with the
// window-wide shared table on, everything at or below a Shared node
// can be linked into another complex object and outlive this one.
func (op *Operator) ownLifetime(parent *Instance, node *Template) bool {
	return op.shared != nil && (node.Shared || parent != nil && parent.underShared)
}

// place completes the instance of a fetched object (inst.Object is
// set), links it, evaluates its predicate, and schedules its children.
// It returns nil when the predicate aborted the complex object.
func (op *Operator) place(item *workItem, parent *Instance, slot int, node *Template, inst *Instance, pg disk.PageID) (*Instance, error) {
	obj := inst.Object
	if node.Class != 0 && obj.Class != node.Class {
		return nil, fmt.Errorf("assembly: object %v has class %d, template node %q wants %d",
			obj.OID, obj.Class, node.Name, node.Class)
	}
	inst.Node, inst.page = node, pg
	if inst.underShared {
		inst.Children = make([]*Instance, len(node.Children))
	} else {
		inst.Children = carve(&item.arena.children, len(node.Children))
	}
	// Selective assembly: "abort the assembly of a complex object as
	// soon as possible if it has a chance of not satisfying a
	// selection predicate" (Section 4).
	if node.Pred != nil && !node.Pred.Eval(obj) {
		op.stats.PredicateFails++
		return nil, op.abortItem(item, "")
	}
	op.linkAt(item, parent, slot, inst)
	if node.Shared {
		item.remember(obj.OID, inst)
	}
	op.noteFootprint(item, pg)

	// Component iterator: discover the unresolved references of the
	// new component, in left-to-right field order, dispatched as one
	// batch so order-sensitive schedulers see the method-traversal
	// order. A nil reference under a required child aborts the whole
	// complex object.
	aborted, err := op.discoverAndDispatch(item, inst, false, true)
	if err != nil {
		return nil, err
	}
	if aborted {
		return nil, op.abortItem(item, "")
	}
	return inst, nil
}

// adoptSubtree accounts a pre-assembled subtree — an adopted root (all
// of it) or one linked from a stacked input: registers its members for
// intra-object sharing, notes the footprint, and schedules its
// unresolved frontier.
func (op *Operator) adoptSubtree(item *workItem, root *Instance, all bool) error {
	root.Walk(func(in *Instance) {
		if all || in.Node.Shared {
			item.remember(in.OID(), in)
		}
		op.noteFootprint(item, in.page)
	})
	_, err := op.discoverAndDispatch(item, root, true, false)
	return err
}

// linkAt swizzles inst into slot of parent (or makes it the item's
// root) and bumps the reference count. Every link is assembly progress,
// so it resets the buffer-stall counter.
func (op *Operator) linkAt(item *workItem, parent *Instance, slot int, inst *Instance) {
	op.stall = 0
	inst.refs++
	if parent == nil {
		item.root = inst
		return
	}
	parent.Children[slot] = inst
	if inst.Parent == nil && !inst.registered {
		inst.Parent = parent
	}
}

// settle checks whether the item just completed and moves it to the
// output queue.
func (op *Operator) settle(item *workItem) {
	if item.aborted || item.emitted {
		return
	}
	if item.pending == 0 && item.root != nil {
		item.emitted = true
		op.retire(item)
		op.stats.Assembled++
		op.tr.Assembly(trace.KindEmit, uint64(item.root.OID()), trace.NoPage, trace.NoPage, "", op.qid)
		op.outq = append(op.outq, item)
	}
}

// abortItem abandons the item's assembly: its pending references die in
// the scheduler (skipped lazily) and its footprint is released. The
// reason goes into the trace event's note: empty for a predicate abort,
// or one of trace.ReasonDeadline / ReasonCanceled / ReasonShed for a
// query-lifecycle abort.
func (op *Operator) abortItem(item *workItem, reason string) error {
	if item.aborted {
		return nil
	}
	item.aborted = true
	op.stats.Aborted++
	op.tr.Assembly(trace.KindAbort, uint64(itemRoot(item)), trace.NoPage, trace.NoPage, reason, op.qid)
	return op.discard(item)
}

// lifecycleReason classifies a lifecycle-terminal error, or returns ""
// for ordinary errors (device faults, bookkeeping bugs) that keep the
// pre-lifecycle behavior.
func lifecycleReason(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return trace.ReasonDeadline
	case errors.Is(err, context.Canceled):
		return trace.ReasonCanceled
	case errors.Is(err, ErrShed), errors.Is(err, buffer.ErrAdmission):
		return trace.ReasonShed
	}
	return ""
}

// fail is the operator's error funnel: every error leaving Next passes
// through it. Lifecycle errors (deadline, cancellation, shed) abort the
// whole window first — every live complex object is abandoned with its
// pins and footprint released, an assembly.abort event per item carrying
// the reason — so the books balance even when the query dies mid-step.
// Other errors pass through untouched. Either way the cells see the
// run as it stood when it failed.
func (op *Operator) fail(err error) error {
	if err == nil || errors.Is(err, volcano.Done) {
		return err
	}
	defer op.publish()
	reason := lifecycleReason(err)
	if reason == "" {
		return err
	}
	if aerr := op.abortLifecycle(reason); aerr != nil {
		return errors.Join(err, aerr)
	}
	return err
}

// abortLifecycle abandons every live complex object with the given
// reason and drains the output queue's pins. Queued items were already
// emitted in stats and trace terms, so they release resources without
// new events; live items go through the ordinary abort path, which also
// clears quarantine-adjacent state (pressure, stall). Idempotent: a
// second call sees empty sets.
func (op *Operator) abortLifecycle(reason string) error {
	var errs []error
	// Newest first: an aborted item retires, and the last slot's
	// retirement moves no other.
	for i := len(op.live) - 1; i >= 0; i-- {
		if err := op.abortItem(op.live[i], reason); err != nil {
			errs = append(errs, err)
		}
	}
	for _, item := range op.outq {
		op.releaseFootprint(item)
		if err := op.unpinFrames(item); err != nil {
			errs = append(errs, err)
		}
	}
	op.outq = nil
	op.cells.lifecycleAbort()
	return errors.Join(errs...)
}

// itemRoot reports the item's root OID for tracing, or the nil OID when
// the root was never placed (e.g. a root-level predicate failure).
func itemRoot(item *workItem) object.OID {
	if item.root == nil {
		return object.NilOID
	}
	return item.root.OID()
}

// quarantine poisons one complex object after an unrecoverable fetch
// fault: the object is discarded with its pins released and counted in
// Stats.Skipped, while the rest of the window proceeds untouched.
// Shared components it already completed stay registered — they are
// whole subtrees, valid for other complex objects to link.
func (op *Operator) quarantine(item *workItem) error {
	if item.aborted {
		return nil
	}
	item.aborted = true
	op.stats.Skipped++
	op.tr.Assembly(trace.KindQuarantine, uint64(itemRoot(item)), trace.NoPage, trace.NoPage, "", op.qid)
	return op.discard(item)
}

// discard is the shared tail of abort and quarantine: the item leaves
// the window and its footprint and pins drain, releasing any buffer
// pressure. Its reference tombstones, which may stay queued until Close,
// need only their item (Ref.live) and page: the partial object and its
// chunks are let go here, so the collector can take them while the
// operator runs.
func (op *Operator) discard(item *workItem) error {
	op.retire(item)
	op.releaseFootprint(item)
	op.pressure = false
	op.stall = 0
	for i := range item.arena.refs {
		item.arena.refs[i].Node, item.arena.refs[i].Parent = nil, nil
	}
	clear(item.assembled)
	item.root, item.pre, item.assembled = nil, nil, nil
	item.arena = arena{refs: item.arena.refs}
	return op.unpinFrames(item)
}

func (op *Operator) noteFootprint(item *workItem, pg disk.PageID) {
	if pg == disk.InvalidPage || slices.Contains(item.pages, pg) {
		return
	}
	item.pages = append(item.pages, pg)
	if int(pg) >= len(op.footprint) {
		op.footprint = append(op.footprint, make([]int32, int(pg)+1-len(op.footprint))...)
	}
	if op.footprint[pg]++; op.footprint[pg] > 1 {
		return
	}
	op.windowPages++
	if op.windowPages > op.stats.PeakWindowPgs {
		op.stats.PeakWindowPgs = op.windowPages
	}
}

func (op *Operator) releaseFootprint(item *workItem) {
	for _, pg := range item.pages {
		if op.footprint[pg]--; op.footprint[pg] == 0 {
			op.windowPages--
		}
	}
	item.pages = item.pages[:0]
	op.publish()
}

// pageOf resolves the page backing an OID, or InvalidPage when the
// locator does not know it.
func (op *Operator) pageOf(oid object.OID) disk.PageID {
	rid, ok, err := op.Store.WhereIs(oid)
	if err != nil || !ok {
		return disk.InvalidPage
	}
	return rid.Page
}

// One site per counter: each of the events below is booked — Stats
// field, query span, trace event — on exactly one line, here.

// publish feeds the registry's cells (see opCells) from the run's Stats
// and the window's live counts. It runs where the window changes by a
// whole object — admit, retire, the release of an item's footprint —
// when Next fails, and at Open and Close; never per reference.
func (op *Operator) publish() {
	if !op.cells.bound() {
		return
	}
	refs := 0
	if op.sched != nil { // Close runs in any state, a closed operator's too
		refs = op.sched.Len()
	}
	op.cells.publish(&op.stats, len(op.live), refs, op.windowPages)
}

// retire takes item out of the window: emitted, aborted, quarantined,
// or turned away at admission.
func (op *Operator) retire(item *workItem) {
	last := len(op.live) - 1
	moved := op.live[last]
	op.live[item.slot], moved.slot = moved, item.slot
	op.live[last] = nil
	op.live = op.live[:last]
	op.publish()
}

// notePageRequest books one buffer request issued for a fetch.
func (op *Operator) notePageRequest() {
	op.stats.PageRequests++
}

// noteLink books one reference satisfied without a fetch; how names
// where the instance came from (intra, window, stacked).
func (op *Operator) noteLink(ref *Ref, how string) {
	op.stats.SharedLinks++
	op.qspan.OnLink()
	op.tr.Assembly(trace.KindLink, uint64(ref.OID), trace.NoPage, trace.NoPage, how, op.qid)
}
