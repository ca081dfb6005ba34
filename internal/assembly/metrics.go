package assembly

import "revelation/internal/metrics"

// opCells are the registry cells a live scrape reads the operator's
// progress from. The per-run Stats struct is the source of truth: every
// site books it alone, and publish carries what it gained since the
// last publish into the counters, once per admission, retirement and
// emission and at Close — so a reference costs no atomic, and a
// scraper is at most one object behind. The cells are get-or-create per
// policy label, so counters accumulate monotonically across runs and
// parallel clones (each publishing its own Stats) while Snapshot deltas
// recover any single run's activity. Unbound (no registry) they are
// nil, and the operator does not publish.
type opCells struct {
	counters        [len(counterFamilies)]*metrics.Counter
	lifecycleAborts *metrics.Counter

	occupancy   *metrics.Gauge // live complex objects in the window
	refPool     *metrics.Gauge // unresolved references queued
	windowPages *metrics.Gauge // distinct pages backing the window

	// published is what the counters hold of this run's Stats.counts.
	published [len(counterFamilies)]int
}

// counterFamilies are the counters Stats.counts publishes, in its order.
var counterFamilies = [...]struct{ name, help string }{
	{"asm_assembly_assembled_total", "Complex objects emitted."},
	{"asm_assembly_aborted_total", "Complex objects abandoned by a predicate."},
	{"asm_assembly_resolved_total", "References resolved (fetches plus shared links)."},
	{"asm_assembly_fetched_total", "Objects materialized from storage."},
	{"asm_assembly_page_requests_total", "Buffer requests issued for fetches."},
	{"asm_assembly_shared_links_total", "References satisfied from assembled instances."},
	{"asm_assembly_predicate_fails_total", "Predicate evaluations that rejected an object."},
	{"asm_assembly_nil_refs_total", "References that were the nil OID."},
	{"asm_assembly_skipped_total", "Complex objects quarantined by I/O faults."},
	{"asm_assembly_fault_retries_total", "Reference fetches re-queued after transient faults."},
	{"asm_assembly_window_stalls_total", "Admission pauses forced by buffer exhaustion."},
}

// counts lists the Stats counters in counterFamilies' order.
func (s *Stats) counts() [len(counterFamilies)]int {
	return [...]int{s.Assembled, s.Aborted, s.Resolved, s.Fetched, s.PageRequests,
		s.SharedLinks, s.PredicateFails, s.NilRefs, s.Skipped, s.FaultRetries, s.WindowStalls}
}

// bind points the cells at r's, labeled by scheduling policy, or leaves
// them unbound when r is nil (metrics off).
func (c *opCells) bind(r *metrics.Registry, policy string) {
	*c = opCells{}
	if r == nil {
		return
	}
	for i, f := range counterFamilies {
		c.counters[i] = r.Counter(f.name, f.help, "policy", policy)
	}
	c.lifecycleAborts = r.Counter("asm_assembly_lifecycle_aborts_total", "Query lifecycle aborts (deadline, cancellation, or shed).", "policy", policy)
	c.occupancy = r.Gauge("asm_assembly_window_occupancy", "Complex objects currently in the window.", "policy", policy)
	c.refPool = r.Gauge("asm_assembly_ref_pool", "Unresolved references currently queued.", "policy", policy)
	c.windowPages = r.Gauge("asm_assembly_window_pages", "Distinct pages backing the window.", "policy", policy)
}

// bound reports whether bind found a registry.
func (c *opCells) bound() bool { return c.occupancy != nil }

// publish adds to the counters what s gained since the last publish,
// skipping the atomic where nothing did, and sets the gauges to the
// window's live values. The cells are bound.
func (c *opCells) publish(s *Stats, live, refPool, windowPages int) {
	now := s.counts()
	for i, n := range now {
		if d := n - c.published[i]; d != 0 {
			c.counters[i].Add(int64(d))
		}
	}
	c.published = now
	c.occupancy.Set(int64(live))
	c.refPool.Set(int64(refPool))
	c.windowPages.Set(int64(windowPages))
}

// lifecycleAbort books one query lifecycle abort. Stats has no field
// for it, and it is no per-reference event, so it goes to its cell on
// the spot.
func (c *opCells) lifecycleAbort() {
	if c.lifecycleAborts != nil {
		c.lifecycleAborts.Inc()
	}
}
