//go:build !race

package dataset

// raceEnabled reports that the race detector is on.
const raceEnabled = false
