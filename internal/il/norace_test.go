//go:build !race

package il

// raceDetector reports whether the tests run under -race, where
// allocation counts are not meaningful.
const raceDetector = false
