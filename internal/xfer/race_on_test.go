//go:build race

package xfer

// raceEnabled reports that the race detector is on: equivSeeds then
// gives a lockstep test its short form.
const raceEnabled = true
