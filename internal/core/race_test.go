//go:build race

package core

// raceEnabled reports a -race build: the race detector slows the
// simulator about tenfold, and single-goroutine statistical tests gain
// nothing from it.
const raceEnabled = true
