package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs, which
// it sorts in place; 0 when xs is empty (every op failed), so a failed
// run still prints its result.
func percentile(xs []float64, q float64) float64 {
	slices.Sort(xs)
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// reportedPercentiles are the latency percentiles the benchmark knows,
// lowest first.
var reportedPercentiles = []float64{0.5, 0.9, 0.99}

// supported reports whether n samples leave at least minTail samples
// beyond the nearest-rank q-quantile.
func supported(n int, q float64) bool {
	rank := int(math.Ceil(q * float64(n)))
	return n > 0 && n-rank >= minTail
}

// highestPercentile returns the highest of reportedPercentiles that n
// samples support, or 0 when none is.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, q := range reportedPercentiles {
		if supported(n, q) {
			best = q
		}
	}
	return best
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work on this
// workload reports zero).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
