package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p < 100) of ascending
// samples by the nearest-rank rule: the smallest sample with at least
// p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[min(max(rank(len(sorted), p), 1), len(sorted))-1]
}

// rank is ceil(p% of n), with a guard against p/100*n landing a hair
// above a whole number in floating point (99.9% of 10000 must be 9990).
func rank(n int, p float64) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailPercentiles are the tail percentiles the benchmark will report,
// highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tailPercentile picks the highest percentile that has at least ten
// samples beyond it — fewer, and the value is one outlier's latency, not
// a property of the distribution. ok is false under 40 samples, where
// not even p75 qualifies.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// beyond is how many of n samples lie strictly above the p-th
// percentile's rank.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
