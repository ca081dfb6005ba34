package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"revelation/internal/disk"
	"revelation/internal/metrics"
	"revelation/internal/qtrace"
	"revelation/internal/trace"
)

// ErrShardDown marks a read or write that failed because its shard's
// circuit breaker is open and no fresh replica could serve it. It
// always travels wrapped together with disk.ErrTransient: the shard
// may come back, so RetryFaults-style callers keep the query alive
// across half-open probes while SkipObject callers quarantine.
var ErrShardDown = errors.New("shard: shard down")

// ErrFencedPage marks a write refused because its page is mid-cutover:
// the resharding migrator has copied the page and fenced it so no write
// lands on the old owner and is lost at the flip. Always transient —
// the fence lifts as soon as the cutover record is durable.
var ErrFencedPage = errors.New("shard: page fenced for migration")

// MemberError attributes a routed-access failure to the shard member
// it happened on, so callers (and the fleet controller) can tell WHICH
// shard starved a retry budget or has its breaker open without parsing
// message text.
type MemberError struct {
	// Member is the shard's name (Member.Name).
	Member string
	// Err is the underlying failure.
	Err error
}

func (e *MemberError) Error() string { return fmt.Sprintf("shard %s: %v", e.Member, e.Err) }
func (e *MemberError) Unwrap() error { return e.Err }

// Member is one shard of the fleet: a primary device (typically a
// pagesvc.Client pointed at one asmpaged primary) plus an optional
// read-only replica for breaker-aware failover and straggler hedging.
type Member struct {
	// Name is the shard's stable identity — the rendezvous hash input.
	// Two fleets listing the same names in any order route every page
	// identically. Typically the primary's address.
	Name string
	// Primary serves reads and all writes.
	Primary disk.Device
	// Replica, when non-nil, serves reads while the primary's breaker
	// is open, as the same-attempt fallback when the primary fails
	// transiently, and as the hedge target when the primary straggles.
	Replica disk.Device
	// AppliedLSN, when non-nil, reports the replica's replication
	// progress for the staleness guard; nil means always fresh.
	AppliedLSN func() uint64
}

// Config tunes a Router.
type Config struct {
	// Members are the shards. At least one is required.
	Members []Member
	// Breaker configures every shard's circuit breaker.
	Breaker BreakerConfig
	// Retry bounds the router's per-access attempts and paces them.
	// The zero policy means disk.DefaultRetryPolicy. Each retry beyond
	// the first attempt also draws from the query's Budget when the
	// context carries one; an exhausted budget stops retrying
	// immediately.
	Retry disk.RetryPolicy
	// LSNFloor, when set, is the replica staleness guard: a replica
	// whose AppliedLSN is below the floor is not eligible to serve
	// degraded or hedged reads. Wire it to the local wal.Writer's
	// DurableLSN.
	LSNFloor func() uint64
	// HedgeAfter, when positive, is how long a read of a member's
	// primary may straggle before the same read is raced against the
	// member's replica. Zero adapts per shard: twice the 0.9-quantile
	// of the shard's recent primary read latencies, once hedgeWarmup
	// reads are in. Members without a replica never hedge.
	HedgeAfter time.Duration
	// Tracer receives net-layer hedge events and the failover event on
	// the edge into a shard's degraded episode; nil disables them.
	Tracer *trace.Tracer
	// Registry, when set, receives asm_shard_* counters.
	Registry *metrics.Registry
}

// shardState is the router's per-shard health bookkeeping. States are
// held by pointer so they survive the members slice growing on
// AddMember.
type shardState struct {
	breaker *Breaker
	// degraded marks an ongoing degraded episode (replica serving or
	// shard unreachable); the edge into it emits one failover event.
	degraded bool
	// epoch is the shard's fencing epoch, bumped by PromoteReplica and
	// stamped into epoch-aware primaries.
	epoch uint64

	// lat is a ring of the shard's recent successful primary read
	// latencies, kept only for members that have a replica: the
	// adaptive hedge delay is read off it.
	latMu   sync.Mutex
	lat     [hedgeRing]time.Duration
	latN    int // samples held, at most hedgeRing
	latNext int

	degradedReads   metrics.Counter
	failovers       metrics.Counter
	hedges          metrics.Counter
	hedgeWins       metrics.Counter
	trips           metrics.Counter
	budgetExhausted metrics.Counter
}

const (
	hedgeRing   = 64
	hedgeWarmup = 16
	hedgeFloor  = 100 * time.Microsecond
)

// Router implements disk.Device over a fleet of shards with
// deterministic rendezvous routing: page p lives on the member whose
// hash(name, p) is highest. The assignment is a pure function of the
// member-name set — independent of slice order and of request history
// — and adding or removing a member moves only the pages whose argmax
// changes (≈ 1/N of the keys).
//
// The membership is live: PromoteReplica swaps a failed primary for
// its replica under a new fencing epoch, and AddMember joins a new
// shard whose rendezvous-owed pages keep routing to their old owners
// until the migrator cuts them over (FenceRange/CutOver). All routing
// state is guarded by one mutex; member devices are copied out under
// it, so accesses in flight during a promotion finish against a
// coherent member view.
type Router struct {
	cfg   Config
	retry disk.RetryPolicy
	ps    int // page size, immutable

	// wmu is the migration write barrier: every write attempt holds it
	// for read from its fence check through its device write, and
	// FenceRange takes it for write AFTER setting fence flags — so once
	// FenceRange returns, every in-flight write has either landed (and
	// the migrator's re-copy will see it) or will observe the fence.
	wmu sync.RWMutex

	mu       sync.Mutex
	members  []Member
	nameSeed []uint64 // per-member hash of Name, precomputed
	shards   []*shardState
	// pending maps a global page whose rendezvous owner is a newly
	// joined member to its PRE-join owner index: reads and writes keep
	// flowing to the old owner until the migrator cuts the page over.
	pending map[disk.PageID]int
	// fence marks pages mid-cutover: writes fail transiently until the
	// ownership record is durable and CutOver lifts the fence.
	fence  map[disk.PageID]bool
	size   int
	last   disk.PageID // last global page touched, for Head()
	closed bool
	legs   sync.WaitGroup // in-flight hedged-read legs (see goLeg)

	// Late-join attachment state: SetTracer/RegisterMetrics remember
	// their arguments so AddMember can wire a new member's device the
	// same way the originals were wired.
	devTracer *trace.Tracer
	devReg    *metrics.Registry
	devPrefix string

	retries metrics.Counter
}

// New builds a router over the given members. All member devices must
// share a page size; each must already cover (or be growable to) the
// full global page space — the router grows them in lockstep on
// Allocate. The initial size is the smallest member size, so opening
// over an existing fleet sees every commonly covered page.
func New(cfg Config) (*Router, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one member")
	}
	ps := cfg.Members[0].Primary.PageSize()
	seen := map[string]bool{}
	for _, m := range cfg.Members {
		if m.Name == "" {
			return nil, fmt.Errorf("shard: member needs a name (the hash identity)")
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("shard: duplicate member name %q", m.Name)
		}
		seen[m.Name] = true
		if m.Primary == nil {
			return nil, fmt.Errorf("shard: member %q has no primary device", m.Name)
		}
		if m.Primary.PageSize() != ps {
			return nil, fmt.Errorf("shard: members disagree on page size")
		}
		if m.Replica != nil && m.Replica.PageSize() != ps {
			return nil, fmt.Errorf("shard: member %q replica disagrees on page size", m.Name)
		}
	}
	retry := cfg.Retry
	if retry.MaxAttempts == 0 {
		retry = disk.DefaultRetryPolicy
	}
	r := &Router{
		cfg:     cfg,
		retry:   retry,
		ps:      ps,
		members: append([]Member(nil), cfg.Members...),
		pending: map[disk.PageID]int{},
		fence:   map[disk.PageID]bool{},
	}
	size := cfg.Members[0].Primary.NumPages()
	for _, m := range cfg.Members {
		r.nameSeed = append(r.nameSeed, hashName(m.Name))
		r.shards = append(r.shards, r.newShardState())
		if n := m.Primary.NumPages(); n < size {
			size = n
		}
	}
	r.size = size
	if reg := cfg.Registry; reg != nil {
		reg.Attach("asm_shard_retries_total", "Router-level access retries across all shards.", &r.retries)
		for i := range r.shards {
			r.attachShardMetrics(reg, r.shards[i], r.members[i].Name)
		}
	}
	return r, nil
}

// newShardState builds a fresh per-shard state with its breaker wired
// to the trip counter.
func (r *Router) newShardState() *shardState {
	st := &shardState{}
	bcfg := r.cfg.Breaker
	bcfg.OnTrip = func() { st.trips.Inc() }
	st.breaker = NewBreaker(bcfg)
	return st
}

// attachShardMetrics registers one shard's labeled counters.
func (r *Router) attachShardMetrics(reg *metrics.Registry, st *shardState, name string) {
	reg.Attach("asm_shard_degraded_reads_total", "Reads served by a shard's replica or refused with the breaker open.",
		&st.degradedReads, "shard", name)
	reg.Attach("asm_shard_failovers_total", "Edges into a degraded episode: the shard's reads left its primary.",
		&st.failovers, "shard", name)
	reg.Attach("asm_shard_hedges_total", "Straggling primary reads raced against the shard's replica.",
		&st.hedges, "shard", name)
	reg.Attach("asm_shard_hedge_wins_total", "Hedged reads the replica answered first.",
		&st.hedgeWins, "shard", name)
	reg.Attach("asm_shard_breaker_trips_total", "Circuit-breaker open transitions.",
		&st.trips, "shard", name)
	reg.Attach("asm_shard_budget_exhausted_total", "Accesses abandoned because the query's retry budget ran dry.",
		&st.budgetExhausted, "shard", name)
}

// hashName is FNV-1a over the member name, finished with a splitmix64
// round so short names still spread across the 64-bit space.
func hashName(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return mix64(h)
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// rendezvousLocked is the pure rendezvous argmax over the CURRENT
// member set; ties break toward the lexically smaller name so the
// choice stays a pure function of the name set. Caller holds r.mu.
func (r *Router) rendezvousLocked(p disk.PageID) int {
	best, bestScore := 0, uint64(0)
	for i, seed := range r.nameSeed {
		score := mix64(seed ^ (uint64(p)+1)*0x9E3779B97F4A7C15)
		if i == 0 || score > bestScore ||
			(score == bestScore && r.members[i].Name < r.members[best].Name) {
			best, bestScore = i, score
		}
	}
	return best
}

// shardOfLocked is the ROUTING owner: the rendezvous owner, except that
// a page still pending migration routes to its pre-join owner. Caller
// holds r.mu.
func (r *Router) shardOfLocked(p disk.PageID) int {
	if old, ok := r.pending[p]; ok {
		return old
	}
	return r.rendezvousLocked(p)
}

// ShardOf routes a global page to its owning member index: the highest
// rendezvous score over the member-name set, overridden toward the old
// owner for pages a live reshard has not yet cut over.
func (r *Router) ShardOf(p disk.PageID) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.shardOfLocked(p)
}

// RendezvousOwner returns the pure rendezvous owner of p over the
// current member set, ignoring any in-flight migration — where the
// page WILL live once resharding completes.
func (r *Router) RendezvousOwner(p disk.PageID) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rendezvousLocked(p)
}

// Shards returns the fleet width.
func (r *Router) Shards() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.members)
}

// MemberName returns shard i's hash identity.
func (r *Router) MemberName(i int) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.members[i].Name
}

// MemberIndex returns the index of the member with the given name, or
// -1 if no such member.
func (r *Router) MemberIndex(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.memberIndexLocked(name)
}

func (r *Router) memberIndexLocked(name string) int {
	for i := range r.members {
		if r.members[i].Name == name {
			return i
		}
	}
	return -1
}

// Epoch returns shard i's current fencing epoch (0 until a promotion).
func (r *Router) Epoch(i int) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.shards[i].epoch
}

// HasReplica reports whether shard i currently has a failover replica.
func (r *Router) HasReplica(i int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.members[i].Replica != nil
}

// ReplicaLSN returns shard i's replica applied LSN, or 0 when the
// shard has no replica or no progress reporter.
func (r *Router) ReplicaLSN(i int) uint64 {
	r.mu.Lock()
	fn := r.members[i].AppliedLSN
	r.mu.Unlock()
	if fn == nil {
		return 0
	}
	return fn()
}

// BreakerState exposes shard i's breaker position (for /statusz and
// tests).
func (r *Router) BreakerState(i int) BreakerState {
	r.mu.Lock()
	b := r.shards[i].breaker
	r.mu.Unlock()
	return b.State()
}

// Trips returns how many times shard i's breaker has opened.
func (r *Router) Trips(i int) int64 {
	r.mu.Lock()
	b := r.shards[i].breaker
	r.mu.Unlock()
	return b.Trips()
}

// DegradedReads returns how many of shard i's reads ran degraded.
func (r *Router) DegradedReads(i int) int64 {
	r.mu.Lock()
	st := r.shards[i]
	r.mu.Unlock()
	return st.degradedReads.Value()
}

// PendingPages returns how many pages still route to their pre-join
// owner (0 when no reshard is in flight).
func (r *Router) PendingPages() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}

// --- live membership ---

// PromoteReplica flips shard i's replica to writable primary under the
// given fencing epoch: the replica device becomes the shard's Primary,
// the breaker resets (the new primary starts with a clean health
// record), the degraded episode ends, and — when the device is
// epoch-aware (pagesvc.Client's SetEpoch) — every subsequent request
// carries the new epoch so the old primary's zombie writes are fenced.
// The demoted device is returned for the caller to close or retire; it
// is NOT closed here, because a fenced zombie may still be draining.
func (r *Router) PromoteReplica(i int, epoch uint64) (disk.Device, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, disk.ErrClosed
	}
	if i < 0 || i >= len(r.members) {
		r.mu.Unlock()
		return nil, fmt.Errorf("shard: promote: no shard %d", i)
	}
	m := &r.members[i]
	if m.Replica == nil {
		r.mu.Unlock()
		return nil, &MemberError{Member: m.Name, Err: fmt.Errorf("promote: no replica")}
	}
	if epoch <= r.shards[i].epoch {
		name, cur := m.Name, r.shards[i].epoch
		r.mu.Unlock()
		return nil, &MemberError{Member: name, Err: fmt.Errorf("promote: epoch %d not beyond current %d", epoch, cur)}
	}
	old := m.Primary
	m.Primary = m.Replica
	m.Replica = nil
	m.AppliedLSN = nil
	r.shards[i].epoch = epoch
	r.shards[i].degraded = false
	st := r.shards[i]
	promoted := m.Primary
	name := m.Name
	r.mu.Unlock()

	st.breaker.Reset()
	if es, ok := promoted.(interface{ SetEpoch(uint64) }); ok {
		es.SetEpoch(epoch)
	}
	r.cfg.Tracer.Net(trace.KindPromote, trace.NoPage, int64(epoch), "shard:"+name, 0)
	return old, nil
}

// AddMember joins a new shard to the fleet. The rendezvous assignment
// over the enlarged name set owes the newcomer ≈ 1/(N+1) of the pages;
// AddMember marks exactly those pages pending — they keep routing to
// their pre-join owners — and returns them in ascending order for the
// migrator to copy and cut over. The new member's primary is grown to
// the global page space, and wired to the tracer/registry the router's
// own devices use. One join at a time: AddMember refuses while a prior
// join still has pending pages.
func (r *Router) AddMember(m Member) ([]disk.PageID, error) {
	if m.Name == "" {
		return nil, fmt.Errorf("shard: member needs a name (the hash identity)")
	}
	if m.Primary == nil {
		return nil, fmt.Errorf("shard: member %q has no primary device", m.Name)
	}
	if m.Primary.PageSize() != r.ps {
		return nil, fmt.Errorf("shard: members disagree on page size")
	}
	if m.Replica != nil && m.Replica.PageSize() != r.ps {
		return nil, fmt.Errorf("shard: member %q replica disagrees on page size", m.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, disk.ErrClosed
	}
	if r.memberIndexLocked(m.Name) >= 0 {
		return nil, fmt.Errorf("shard: duplicate member name %q", m.Name)
	}
	if len(r.pending) > 0 {
		return nil, fmt.Errorf("shard: a reshard is already in flight (%d pages pending)", len(r.pending))
	}
	if grow := r.size - m.Primary.NumPages(); grow > 0 {
		if _, err := m.Primary.Allocate(grow); err != nil {
			return nil, fmt.Errorf("shard: grow joining member %q: %w", m.Name, err)
		}
	}
	newIdx := len(r.members)
	r.members = append(r.members, m)
	r.nameSeed = append(r.nameSeed, hashName(m.Name))
	r.shards = append(r.shards, r.newShardState())
	if r.cfg.Registry != nil {
		r.attachShardMetrics(r.cfg.Registry, r.shards[newIdx], m.Name)
	}
	if r.devTracer != nil {
		disk.AttachTracer(m.Primary, r.devTracer)
		if m.Replica != nil {
			disk.AttachTracer(m.Replica, r.devTracer)
		}
	}
	if r.devReg != nil {
		disk.RegisterMetrics(m.Primary, r.devReg, fmt.Sprintf("%s%d", r.devPrefix, newIdx))
		if m.Replica != nil {
			disk.RegisterMetrics(m.Replica, r.devReg, fmt.Sprintf("%s%dr", r.devPrefix, newIdx))
		}
	}

	// The delta: every page whose post-join argmax is the newcomer.
	// Its pre-join owner is the argmax over the old prefix — recorded
	// so routing keeps hitting the data until the cutover.
	var delta []disk.PageID
	for p := 0; p < r.size; p++ {
		id := disk.PageID(p)
		if r.rendezvousLocked(id) == newIdx {
			old, oldScore := 0, uint64(0)
			for i := 0; i < newIdx; i++ {
				score := mix64(r.nameSeed[i] ^ (uint64(id)+1)*0x9E3779B97F4A7C15)
				if i == 0 || score > oldScore ||
					(score == oldScore && r.members[i].Name < r.members[old].Name) {
					old, oldScore = i, score
				}
			}
			r.pending[id] = old
			delta = append(delta, id)
		}
	}
	sort.Slice(delta, func(a, b int) bool { return delta[a] < delta[b] })
	return delta, nil
}

// FenceRange fences every pending page in [lo, hi): writes to fenced
// pages fail transiently until CutOver lifts the fence, so the copy the
// migrator takes after fencing cannot be silently invalidated on the
// old owner. Reads keep flowing. FenceRange does not return until every
// write already in flight has landed — the migrator may trust that a
// post-fence read of the old owner sees all surviving writes. Fencing
// an already-fenced or non-pending page is a no-op; it returns how many
// pages are newly fenced.
func (r *Router) FenceRange(lo, hi disk.PageID) int {
	r.mu.Lock()
	n := 0
	for p := range r.pending {
		if p >= lo && p < hi && !r.fence[p] {
			r.fence[p] = true
			n++
		}
	}
	r.mu.Unlock()
	// Barrier: wait out writes that checked the fence before it was set.
	r.wmu.Lock()
	r.wmu.Unlock() //nolint:staticcheck // empty critical section IS the barrier
	return n
}

// UnfenceRange lifts fences in [lo, hi) without cutting over — the
// migrator's abort path when a copy fails and must be retried.
func (r *Router) UnfenceRange(lo, hi disk.PageID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for p := range r.fence {
		if p >= lo && p < hi {
			delete(r.fence, p)
		}
	}
}

// CutOver applies one durable ownership record: every pending page in
// [lo, hi) whose rendezvous owner is the named member flips to it —
// subsequent accesses route to the new owner — and its fence lifts. It
// returns how many pages flipped. Replaying a cutover (recovery after
// a migrator crash) is idempotent: already-flipped pages are no longer
// pending and count zero.
func (r *Router) CutOver(lo, hi disk.PageID, owner string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := r.memberIndexLocked(owner)
	if idx < 0 {
		return 0
	}
	n := 0
	for p := range r.pending {
		if p >= lo && p < hi && r.rendezvousLocked(p) == idx {
			delete(r.pending, p)
			delete(r.fence, p)
			n++
		}
	}
	if n > 0 {
		r.cfg.Tracer.Net(trace.KindMigrate, int64(lo), int64(n), "shard:"+owner, 0)
	}
	return n
}

// --- access path ---

// checkAccess validates the access and books the head movement.
func (r *Router) checkAccess(p disk.PageID, buf []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return disk.ErrClosed
	}
	if len(buf) != r.ps {
		return disk.ErrBadLength
	}
	if int(p) >= r.size {
		return fmt.Errorf("%w: page %d of %d", disk.ErrOutOfRange, p, r.size)
	}
	r.last = p
	return nil
}

// replicaFresh reports whether the member copy's replica exists and
// clears the staleness floor.
func (r *Router) replicaFresh(m Member) bool {
	if m.Replica == nil {
		return false
	}
	if r.cfg.LSNFloor == nil || m.AppliedLSN == nil {
		return true
	}
	return m.AppliedLSN() >= r.cfg.LSNFloor()
}

// noteDegraded books one degraded read on shard i and emits a
// failover event on the edge into the episode.
func (r *Router) noteDegraded(st *shardState, name string, sp *qtrace.Span) {
	st.degradedReads.Inc()
	sp.OnDegraded()
	r.mu.Lock()
	edge := !st.degraded
	st.degraded = true
	r.mu.Unlock()
	if edge {
		st.failovers.Inc()
		r.cfg.Tracer.Net(trace.KindFailover, trace.NoPage, 0, "shard:"+name, 0)
	}
}

// noteHealthy clears a shard's degraded episode after a primary
// success.
func (r *Router) noteHealthy(st *shardState) {
	r.mu.Lock()
	st.degraded = false
	r.mu.Unlock()
}

// answered reports whether err is a member's answer rather than an
// outage: a permanent page error means the shard responded, so only
// transient failures count against its breaker.
func answered(err error) bool { return err == nil || !disk.Retryable(err) }

// hedgeDelay is how long the shard's primary may straggle before a
// read is hedged: the configured delay, else twice the 0.9-quantile of
// the latency ring once it holds hedgeWarmup samples. Zero means do not
// hedge this read.
func (st *shardState) hedgeDelay(fixed time.Duration) time.Duration {
	if fixed > 0 {
		return fixed
	}
	st.latMu.Lock()
	sorted, n := st.lat, st.latN
	st.latMu.Unlock()
	if n < hedgeWarmup {
		return 0
	}
	slices.Sort(sorted[:n])
	return max(2*sorted[(n-1)*9/10], hedgeFloor)
}

// recordPrimary books the outcome of a primary read of a member that
// has a replica: the breaker's health record, and the latency ring on
// success.
func (st *shardState) recordPrimary(err error, took time.Duration) {
	st.breaker.Record(answered(err))
	if err != nil {
		return
	}
	st.latMu.Lock()
	st.lat[st.latNext] = took
	st.latNext = (st.latNext + 1) % hedgeRing
	if st.latN < hedgeRing {
		st.latN++
	}
	st.latMu.Unlock()
}

// leg is one side of a hedged read: the page it read into its own
// scratch buffer, or the error.
type leg struct {
	page []byte
	err  error
}

// readLeg reads p from dev into a fresh scratch page. A leg never
// touches the caller's buffer: the loser of a race may finish long
// after the read has returned.
func readLeg(ctx context.Context, dev disk.Device, p disk.PageID, size int) leg {
	page := make([]byte, size)
	return leg{page, disk.ReadPageCtx(ctx, dev, p, page)}
}

// goLeg runs fn as a leg goroutine that Close waits for. It reports
// false, without running fn, once the router is closed.
func (r *Router) goLeg(fn func()) bool {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return false
	}
	r.legs.Add(1)
	r.mu.Unlock()
	go func() {
		defer r.legs.Done()
		fn()
	}()
	return true
}

// readHedged reads p from a member that has a replica. The primary is
// read first; once it has straggled past the shard's hedge delay and
// the replica clears the staleness floor, the same read is raced
// against the replica and the first success wins. hedged reports that
// the replica leg ran, so the caller's same-attempt fallback does not
// try it twice. The primary leg books the breaker and the latency ring
// itself, whenever it finishes; each leg ends when its device call
// returns (bounded by the member client's timeout and retries, or its
// Close).
func (r *Router) readHedged(ctx context.Context, m Member, st *shardState, p disk.PageID, buf []byte, sp *qtrace.Span) (err error, hedged bool) {
	start := time.Now()
	delay := st.hedgeDelay(r.cfg.HedgeAfter)
	if delay == 0 {
		err = disk.ReadPageCtx(ctx, m.Primary, p, buf)
		st.recordPrimary(err, time.Since(start))
		return err, false
	}
	primCh := make(chan leg, 1)
	if !r.goLeg(func() {
		l := readLeg(ctx, m.Primary, p, len(buf))
		st.recordPrimary(l.err, time.Since(start))
		primCh <- l
	}) {
		return disk.ErrClosed, false
	}
	timer := time.NewTimer(delay)
	defer timer.Stop()
	hedgeCh := make(chan leg, 1)
	var l leg
	select {
	case l = <-primCh:
	case <-timer.C:
		if !r.replicaFresh(m) || !r.goLeg(func() { hedgeCh <- readLeg(ctx, m.Replica, p, len(buf)) }) {
			l = <-primCh
			break
		}
		hedged = true
		st.hedges.Inc()
		sp.OnHedge()
		r.cfg.Tracer.Net(trace.KindHedge, int64(p), 0, "shard:"+m.Name, sp.QID())
		select {
		case l = <-primCh:
			if l.err != nil {
				if h := <-hedgeCh; h.err == nil {
					st.hedgeWins.Inc()
					l = h
				}
			}
		case l = <-hedgeCh:
			if l.err == nil {
				st.hedgeWins.Inc()
			} else if pl := <-primCh; pl.err == nil {
				l = pl
			}
		}
	}
	if l.err == nil {
		copy(buf, l.page)
	}
	return l.err, hedged
}

// attemptOnce runs one routed attempt. final reports that err (nil or
// not) is the access's answer; !final means a transient failure the
// retry loop may spend an attempt on. The returned name and state
// identify the member the attempt ran against, for error attribution.
func (r *Router) attemptOnce(ctx context.Context, p disk.PageID, buf []byte, write bool, sp *qtrace.Span) (err error, final bool, name string, st *shardState) {
	if write {
		// Hold the write barrier from the fence check through the device
		// write (released before the caller's backoff sleep), so
		// FenceRange can wait out writes that raced past the fence.
		r.wmu.RLock()
		defer r.wmu.RUnlock()
	}
	// Resolve the route and copy the member under the lock, then
	// release before touching the (possibly remote, slow) device —
	// a promotion or cutover may swap members mid-access, and the
	// attempt in flight just finishes against its coherent copy.
	r.mu.Lock()
	i := r.shardOfLocked(p)
	m := r.members[i]
	st = r.shards[i]
	fenced := write && r.fence[p]
	r.mu.Unlock()
	name = m.Name

	switch {
	case fenced:
		// Mid-cutover: the migrator holds the pen on this page. The
		// fence lifts in well under a retry interval, and the retry
		// re-routes to whichever owner wins.
		return fmt.Errorf("%w: page %d: %w", ErrFencedPage, p, disk.ErrTransient), false, name, st
	case st.breaker.Allow():
		hedged := false
		if write || m.Replica == nil {
			if write {
				err = m.Primary.WritePage(p, buf)
			} else {
				err = disk.ReadPageCtx(ctx, m.Primary, p, buf)
			}
			st.breaker.Record(answered(err))
		} else {
			err, hedged = r.readHedged(ctx, m, st, p, buf, sp)
		}
		if err == nil {
			if !hedged {
				r.noteHealthy(st)
			}
			return nil, true, name, st
		}
		if !disk.Retryable(err) {
			return err, true, name, st
		}
		// The primary failed transiently: a fresh replica can serve
		// the read right now instead of burning a retry (unless the
		// hedge leg just tried it).
		if !write && !hedged && r.replicaFresh(m) {
			if rerr := disk.ReadPageCtx(ctx, m.Replica, p, buf); rerr == nil {
				r.noteDegraded(st, m.Name, sp)
				return nil, true, name, st
			}
		}
		return err, false, name, st
	default:
		// Breaker open: reads go straight to the replica; without a
		// fresh one the shard is down for this access.
		if !write && r.replicaFresh(m) {
			if rerr := disk.ReadPageCtx(ctx, m.Replica, p, buf); rerr == nil {
				r.noteDegraded(st, m.Name, sp)
				return nil, true, name, st
			}
		}
		err = &MemberError{Member: m.Name, Err: fmt.Errorf("%w: breaker open: %w", ErrShardDown, disk.ErrTransient)}
		st.degradedReads.Inc()
		sp.OnDegraded()
		return err, false, name, st
	}
}

// access runs one routed read or write with breaker gating, replica
// fallback (reads only), retry pacing, and budget accounting. Routing
// re-resolves on every attempt: a page cut over or a replica promoted
// between attempts is picked up by the next one.
func (r *Router) access(ctx context.Context, p disk.PageID, buf []byte, write bool) error {
	sp := qtrace.From(ctx)
	attempts := r.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	for attempt := 0; ; attempt++ {
		err, final, name, st := r.attemptOnce(ctx, p, buf, write, sp)
		if final {
			return err
		}
		if attempt+1 >= attempts {
			return err
		}
		// A retry beyond the first attempt draws from the per-query
		// budget: when the query has spent its shared allowance —
		// anywhere in the fleet — the error surfaces now and the fault
		// policy above decides the object's fate.
		if b := BudgetFrom(ctx); b != nil && !b.Take() {
			st.budgetExhausted.Inc()
			return &MemberError{Member: name, Err: fmt.Errorf("retry budget exhausted: %w", err)}
		}
		r.retries.Inc()
		sp.OnIORetries(1)
		if d := r.retry.Backoff(attempt); d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-ctx.Done():
				timer.Stop()
				return ctx.Err()
			case <-timer.C:
			}
		}
	}
}

// --- disk.Device ---

// devices lists every member device — each primary, then its replica
// where it has one — copied out under the lock for iteration without
// holding it across device calls.
func (r *Router) devices() []disk.Device {
	r.mu.Lock()
	defer r.mu.Unlock()
	devs := make([]disk.Device, 0, 2*len(r.members))
	for _, m := range r.members {
		devs = append(devs, m.Primary)
		if m.Replica != nil {
			devs = append(devs, m.Replica)
		}
	}
	return devs
}

// ReadPage implements disk.Device.
func (r *Router) ReadPage(p disk.PageID, buf []byte) error {
	return r.ReadPageCtx(context.Background(), p, buf)
}

// ReadPageCtx implements disk.CtxReader: the read is routed to the
// owning shard and attributed (device-side) to the query span in ctx.
func (r *Router) ReadPageCtx(ctx context.Context, p disk.PageID, buf []byte) error {
	if err := r.checkAccess(p, buf); err != nil {
		return err
	}
	return r.access(ctx, p, buf, false)
}

// ReadPages implements disk.RunReader. A run whose pages all belong to
// one member that has no replica to hedge against and whose breaker
// admits it goes to that member's primary whole — one operation, one
// entry in the breaker's health record. Every page such a read leaves
// unanswered, and every run that is not of that kind (several owners, a
// replica, a breaker that refuses, a page the router would refuse), is
// read page by page down the routed path, which decides retries,
// budget, failover and fencing as for any single read.
func (r *Router) ReadPages(ctx context.Context, ids []disk.PageID, bufs [][]byte, errs []error) {
	m, st, degraded := r.routeRun(ids, bufs)
	if st == nil || !st.breaker.Allow() {
		for i, p := range ids {
			errs[i] = r.ReadPageCtx(ctx, p, bufs[i])
		}
		return
	}
	disk.ReadPages(ctx, m.Primary, ids, bufs, errs)
	healthy, delivered := true, false
	for _, err := range errs {
		healthy = healthy && answered(err)
		delivered = delivered || err == nil
	}
	st.breaker.Record(healthy)
	if delivered && degraded {
		r.noteHealthy(st)
	}
	for i, err := range errs {
		if err != nil {
			errs[i] = r.access(ctx, ids[i], bufs[i], false)
		}
	}
}

// routeRun validates and routes a run in one critical section, as
// checkAccess and the routing step of attemptOnce do for a page. It
// returns the member that owns every page of the run and its state —
// with whether the shard stood in a degraded episode — or a nil state
// when there is no such member, the member has a replica, or any page
// would be refused.
func (r *Router) routeRun(ids []disk.PageID, bufs [][]byte) (m Member, st *shardState, degraded bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || len(ids) == 0 {
		return Member{}, nil, false
	}
	owner := r.shardOfLocked(ids[0])
	for i, p := range ids {
		if len(bufs[i]) != r.ps || int(p) >= r.size || i > 0 && r.shardOfLocked(p) != owner {
			return Member{}, nil, false
		}
	}
	if r.members[owner].Replica != nil {
		return Member{}, nil, false
	}
	r.last = ids[len(ids)-1]
	return r.members[owner], r.shards[owner], r.shards[owner].degraded
}

// WritePage implements disk.Device: writes go to the owning shard's
// primary only — one write master per shard — and fail transiently
// while it is down.
func (r *Router) WritePage(p disk.PageID, buf []byte) error {
	if err := r.checkAccess(p, buf); err != nil {
		return err
	}
	return r.access(context.Background(), p, buf, true)
}

// Allocate implements disk.Device: the global space grows, and every
// member grows in lockstep so any member can cover any page it may be
// assigned (rendezvous assignment is scattered, so each shard backs
// the full space and stores only its owned subset).
func (r *Router) Allocate(n int) (disk.PageID, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return disk.InvalidPage, disk.ErrClosed
	}
	first := disk.PageID(r.size)
	newSize := r.size + n
	for _, m := range r.members {
		if grow := newSize - m.Primary.NumPages(); grow > 0 {
			if _, err := m.Primary.Allocate(grow); err != nil {
				return disk.InvalidPage, err
			}
		}
	}
	r.size = newSize
	return first, nil
}

// NumPages implements disk.Device.
func (r *Router) NumPages() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.size
}

// PageSize implements disk.Device.
func (r *Router) PageSize() int { return r.ps }

// Head implements disk.Device: the last global page touched. Member
// heads are the physically meaningful ones; the per-shard elevator
// keeps its own per-lane positions.
func (r *Router) Head() disk.PageID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last
}

// Stats implements disk.Device: the aggregate over every member
// primary and replica (a degraded read moves a replica's head, and the
// combined view must count it).
func (r *Router) Stats() disk.Stats {
	var total disk.Stats
	for _, d := range r.devices() {
		total = total.Add(d.Stats())
	}
	return total
}

// ResetStats implements disk.Device.
func (r *Router) ResetStats() {
	for _, d := range r.devices() {
		d.ResetStats()
	}
}

// ResetHead implements disk.Device.
func (r *Router) ResetHead() {
	r.mu.Lock()
	r.last = 0
	r.mu.Unlock()
	for _, d := range r.devices() {
		d.ResetHead()
	}
}

// Close implements disk.Device: it closes every member device, then
// waits out the hedged-read legs still in flight against them.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	var first error
	for _, d := range r.devices() {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	r.legs.Wait()
	return first
}

// SetTracer implements disk.TracerSetter by forwarding to every member
// device: traced reads carry each member's own head accounting, which
// is the physically meaningful view. The tracer is remembered so
// members joining later get it too.
func (r *Router) SetTracer(t *trace.Tracer) {
	r.mu.Lock()
	r.devTracer = t
	r.mu.Unlock()
	for _, d := range r.devices() {
		disk.AttachTracer(d, t)
	}
}

// RegisterMetrics implements disk.MetricsRegistrar by registering
// every member primary under "<dev><index>" (replicas under
// "<dev><index>r"), mirroring disk.Striped. The registry is remembered
// so members joining later register the same way.
func (r *Router) RegisterMetrics(reg *metrics.Registry, dev string) {
	r.mu.Lock()
	r.devReg, r.devPrefix = reg, dev
	members := append([]Member(nil), r.members...)
	r.mu.Unlock()
	for i, m := range members {
		disk.RegisterMetrics(m.Primary, reg, fmt.Sprintf("%s%d", dev, i))
		if m.Replica != nil {
			disk.RegisterMetrics(m.Replica, reg, fmt.Sprintf("%s%dr", dev, i))
		}
	}
}

var _ disk.Device = (*Router)(nil)
var _ disk.CtxReader = (*Router)(nil)
var _ disk.RunReader = (*Router)(nil)
