package assembly

import "revelation/internal/metrics"

// opCells mirrors the operator's per-run Stats into registry cells so a
// live scrape sees assembly progress. The per-run stats struct stays
// the source of truth for exactness (parallel clones each keep their
// own); the cells are get-or-create per policy label, so counters
// accumulate monotonically across runs and clones while Snapshot deltas
// recover any single run's activity.
type opCells struct {
	assembled       *metrics.Counter
	aborted         *metrics.Counter
	resolved        *metrics.Counter
	fetched         *metrics.Counter
	pageRequests    *metrics.Counter
	sharedLinks     *metrics.Counter
	predicateFails  *metrics.Counter
	nilRefs         *metrics.Counter
	skipped         *metrics.Counter
	faultRetries    *metrics.Counter
	windowStalls    *metrics.Counter
	lifecycleAborts *metrics.Counter

	occupancy   *metrics.Gauge // live complex objects in the window
	refPool     *metrics.Gauge // unresolved references queued
	windowPages *metrics.Gauge // distinct pages backing the window

	// The cells are these two when there is no registry: nothing reads
	// them then, so they share them, and no Open allocates any.
	sinkCounter metrics.Counter
	sinkGauge   metrics.Gauge
}

// bind points the cells at r's, labeled by scheduling policy, or at the
// sinks when r is nil (metrics off), so instrumentation sites never
// branch.
func (c *opCells) bind(r *metrics.Registry, policy string) {
	counter := func(name, help string) *metrics.Counter {
		if r == nil {
			return &c.sinkCounter
		}
		return r.Counter(name, help, "policy", policy)
	}
	gauge := func(name, help string) *metrics.Gauge {
		if r == nil {
			return &c.sinkGauge
		}
		return r.Gauge(name, help, "policy", policy)
	}
	c.assembled = counter("asm_assembly_assembled_total", "Complex objects emitted.")
	c.aborted = counter("asm_assembly_aborted_total", "Complex objects abandoned by a predicate.")
	c.resolved = counter("asm_assembly_resolved_total", "References resolved (fetches plus shared links).")
	c.fetched = counter("asm_assembly_fetched_total", "Objects materialized from storage.")
	c.pageRequests = counter("asm_assembly_page_requests_total", "Buffer requests issued for fetches.")
	c.sharedLinks = counter("asm_assembly_shared_links_total", "References satisfied from assembled instances.")
	c.predicateFails = counter("asm_assembly_predicate_fails_total", "Predicate evaluations that rejected an object.")
	c.nilRefs = counter("asm_assembly_nil_refs_total", "References that were the nil OID.")
	c.skipped = counter("asm_assembly_skipped_total", "Complex objects quarantined by I/O faults.")
	c.faultRetries = counter("asm_assembly_fault_retries_total", "Reference fetches re-queued after transient faults.")
	c.windowStalls = counter("asm_assembly_window_stalls_total", "Admission pauses forced by buffer exhaustion.")
	c.lifecycleAborts = counter("asm_assembly_lifecycle_aborts_total", "Query lifecycle aborts (deadline, cancellation, or shed).")
	c.occupancy = gauge("asm_assembly_window_occupancy", "Complex objects currently in the window.")
	c.refPool = gauge("asm_assembly_ref_pool", "Unresolved references currently queued.")
	c.windowPages = gauge("asm_assembly_window_pages", "Distinct pages backing the window.")
}
