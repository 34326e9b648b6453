package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before
// the harness reports it: fewer and the value is one or two outliers,
// not a property of the system.
const minBeyond = 10

// percentile returns the q-quantile of sorted by the nearest-rank
// rule (the smallest value with at least q·n samples at or below it).
// It returns 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// supported reports whether n samples leave at least minBeyond of them
// strictly beyond the q-quantile's rank.
func supported(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= minBeyond
}

// supportedPercentile is percentile, or 0 when the sample cannot
// support q (see supported).
func supportedPercentile(sorted []float64, q float64) float64 {
	if !supported(len(sorted), q) {
		return 0
	}
	return percentile(sorted, q)
}

// Latency percentiles are reported as the median over up to
// maxSegments consecutive equal-count segments of the window, each
// holding at least segmentSamples calls: a burst of interference lands
// in one segment and leaves the median alone, where it would sit
// squarely in the tail of the pooled sample. A segment of 100 keeps ten
// samples beyond its own p90.
const (
	maxSegments    = 5
	segmentSamples = 100
)

// segmentedPercentile returns the median of the q-quantiles of the
// segments of xs (in the order the calls were made).
func segmentedPercentile(xs []float64, q float64) float64 {
	segments := len(xs) / segmentSamples
	if segments < 1 {
		segments = 1
	}
	if segments > maxSegments {
		segments = maxSegments
	}
	per := make([]float64, 0, segments)
	for s := 0; s < segments; s++ {
		part := append([]float64(nil), xs[s*len(xs)/segments:(s+1)*len(xs)/segments]...)
		sort.Float64s(part)
		per = append(per, percentile(part, q))
	}
	return median(per)
}

// mean returns the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median returns the middle value of xs (mean of the two middle values
// for an even count) without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
