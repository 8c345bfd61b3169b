//go:build !race

package endpoint

// raceEnabled reports that the race detector is on.
const raceEnabled = false
