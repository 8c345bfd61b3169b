//go:build !race

package netem

// raceEnabled reports that the race detector is on.
const raceEnabled = false
