//go:build race

package repro_test

// raceDetector reports whether the tests run under -race, where
// allocation counts are not meaningful.
const raceDetector = true
