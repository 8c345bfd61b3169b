//go:build !race

package main

// raceEnabled reports that the race detector is on.
const raceEnabled = false
