package buffer

// Test-only exports: code that only this package's tests use lives here,
// out of the build.

import (
	"revelation/internal/disk"
)

// Contains reports whether the page is resident (pinned or not).
func (p *Pool) Contains(id disk.PageID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.resident(id) != nil
}

// Frames reports the quota still held (0 after Release).
func (r *Reservation) Frames() int {
	if r == nil {
		return 0
	}
	r.pool.mu.Lock()
	defer r.pool.mu.Unlock()
	return r.frames
}
