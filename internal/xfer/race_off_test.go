//go:build !race

package xfer

// raceEnabled reports that the race detector is on.
const raceEnabled = false
