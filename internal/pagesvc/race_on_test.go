//go:build race

package pagesvc

// raceEnabled skips the allocation pin when the race detector, which
// allocates on its own account, is on.
const raceEnabled = true
