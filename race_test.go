//go:build race

package repro

// raceDetector reports whether the tests run under -race, where
// allocation counts are not meaningful.
const raceDetector = true
