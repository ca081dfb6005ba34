//go:build race

package buffer

// raceEnabled shortens the long randomized tests and skips the timing
// test when the race detector multiplies their cost.
const raceEnabled = true
