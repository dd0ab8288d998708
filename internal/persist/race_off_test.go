//go:build !race

package persist

// raceEnabled reports that the test binary runs under the race detector.
const raceEnabled = false
