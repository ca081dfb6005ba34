package shard

// Test-only exports: code that only this package's tests use lives here,
// out of the build.

import "revelation/internal/disk"

// RendezvousOwner returns the pure rendezvous owner of p over the
// current member set, ignoring any in-flight migration — where the
// page WILL live once resharding completes.
func (r *Router) RendezvousOwner(p disk.PageID) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rendezvousLocked(p)
}
