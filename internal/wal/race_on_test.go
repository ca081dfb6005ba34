//go:build race

package wal

// raceEnabled shortens the long randomized test and skips the
// allocation pin when the race detector multiplies their cost.
const raceEnabled = true
