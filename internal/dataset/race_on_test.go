//go:build race

package dataset

// raceEnabled reports that the race detector is on. It slows the
// generators about tenfold, so TestParseSpecMatchesParent then runs one
// small case of each spec form.
const raceEnabled = true
