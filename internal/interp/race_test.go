//go:build race

package interp

// raceEnabled reports a race-detector build, which slows both engines
// too much for the test that runs them to the step budget.
const raceEnabled = true
