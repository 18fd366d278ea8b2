//go:build !race

package interp

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
