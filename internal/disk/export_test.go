package disk

// Test-only exports: code that only this package's tests use lives here,
// out of the build.

// TransientlyFaulty reports whether page p starts out transiently
// failing under the current configuration (regardless of how many
// failures it has already served).
func (f *Faulty) TransientlyFaulty(p PageID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.transientLocked(p)
}

// BrownoutIntensity reports the intensity the *next* access would see
// — 0 outside the configured episode, 1 on the plateau. Tests use it
// to walk the access clock to a known point in the episode.
func (f *Faulty) BrownoutIntensity() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return brownoutIntensity(f.cfg, f.accesses)
}
