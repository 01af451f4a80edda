//go:build race

package sapsim

// raceEnabled reports a -race build, whose instrumentation moves allocation
// counts; work gates skip their allocation rows under it.
const raceEnabled = true
