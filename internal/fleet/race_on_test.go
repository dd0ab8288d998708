//go:build race

package fleet

// raceEnabled reports that the test binary runs under the race detector.
const raceEnabled = true
