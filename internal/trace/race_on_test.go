//go:build race

package trace

// raceEnabled reports that the test binary runs under the race detector.
const raceEnabled = true
