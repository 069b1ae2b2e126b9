package main

import (
	"math"
	"sort"
)

// failedLatency stands in for an op that failed: slower than any percentile.
const failedLatency = math.MaxInt64

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile is the nearest-rank q-quantile of sorted (ascending). ok is false
// when fewer than minBeyond samples lie beyond that rank, so the sample cannot
// support the percentile.
func percentile(sorted []int64, q float64) (v int64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// medianSpread summarises a metric's per-window values: their median, and the
// distance between their quartiles as a share of it (the spread printed beside
// every metric).
func medianSpread(vals []float64) (med, spread float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	med = s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	if med != 0 {
		spread = (s[3*n/4] - s[n/4]) / med
	}
	return med, spread
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
