package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it. It never interpolates, so a reported latency is always
// one that an operation actually had. An empty sample yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean is the geometric mean of positive values; a non-positive value
// (a run that did not happen) makes the whole mean 0 so it cannot hide.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// opResult is one operation's outcome in the timed section.
type opResult struct {
	ns     float64
	failed bool
}

// roundStats are the timing statistics of one round. A failed operation
// has no latency: it is counted and left out of the percentiles.
type roundStats struct {
	ops, failed int
	wallNS      float64
	p50ms       float64
	p99ms       float64
}

func summarizeRound(results []opResult, wallNS float64) roundStats {
	rs := roundStats{ops: len(results), wallNS: wallNS}
	lat := make([]float64, 0, len(results))
	for _, r := range results {
		if r.failed {
			rs.failed++
			continue
		}
		lat = append(lat, r.ns/1e6)
	}
	rs.p50ms = median(lat)
	rs.p99ms = percentile(lat, 99)
	return rs
}

// medianOfRounds applies f to every round and reports the median: one
// noisy patch of a shared machine spoils one round, not the metric.
func medianOfRounds(rounds []roundStats, f func(roundStats) float64) float64 {
	vals := make([]float64, len(rounds))
	for i, r := range rounds {
		vals[i] = f(r)
	}
	return median(vals)
}
