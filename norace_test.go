//go:build !race

package sapsim

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
