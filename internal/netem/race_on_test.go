//go:build race

package netem

// raceEnabled reports that the race detector is on: equivSeeds then
// gives a lockstep test its short form.
const raceEnabled = true
