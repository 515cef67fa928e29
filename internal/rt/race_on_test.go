//go:build race

package rt

// raceEnabled reports whether this test binary carries race-detector
// instrumentation; TestManyGroupsSteadyStateOverTCP sizes its
// fleet by it.
const raceEnabled = true
