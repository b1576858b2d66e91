//go:build !race

package tune_test

// raceDetector reports whether the tests run under -race.
const raceDetector = false
