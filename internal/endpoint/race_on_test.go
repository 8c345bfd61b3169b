//go:build race

package endpoint

// raceEnabled reports that the race detector is on: equivRounds then
// gives its short form.
const raceEnabled = true
