//go:build !race

package bo

// raceEnabled reports that the test binary runs under the race detector.
const raceEnabled = false
