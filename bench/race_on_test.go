//go:build race

package main

// raceEnabled reports that the race detector is on. It slows the
// simulator and the pumps about eightfold, so TestQuick then keeps to
// the runs that share memory between goroutines.
const raceEnabled = true
