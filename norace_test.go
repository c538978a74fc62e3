//go:build !race

package fedmigr

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = false
