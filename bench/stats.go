package main

import (
	"math"
	"sort"

	"dstune/internal/stats"
)

// tailMargin is how many samples must lie beyond a tail percentile
// before the benchmark reports it: with fewer, the percentile is set by
// a handful of outliers and does not repeat from run to run.
const tailMargin = 10

// median returns the middle of xs (0 for an empty slice).
func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

// tailLevel returns the highest percentile of the ladder 50, 75, 90,
// 95, 99 that still has at least tailMargin samples beyond it in a
// sample of n, or 0 when even the 75th has not — below 40 samples the
// benchmark reports a median and no tail.
func tailLevel(n int) int {
	level := 0
	for _, p := range []int{75, 90, 95, 99} {
		if float64(n)*float64(100-p)/100 >= tailMargin {
			level = p
		}
	}
	return level
}

// percentile returns the p-th percentile of xs when the sample supports
// it (tailLevel(len(xs)) >= p, or p is the median) and ok=false when it
// does not.
func percentile(xs []float64, p int) (v float64, ok bool) {
	if len(xs) == 0 || (p > 50 && tailLevel(len(xs)) < p) {
		return 0, false
	}
	return stats.Quantile(xs, float64(p)/100), true
}

// quartiles returns the first and third quartile of xs by the
// "exclusive" method — the one Python's statistics.quantiles(xs, n=4)
// uses, which is how the driver computes the spread of ten runs. It
// needs two values; with fewer both quartiles are the single value (or
// 0).
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		// Position k*(n+1)/4 in 1-based order statistics, clamped so
		// that the interpolation stays inside the sample.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread returns the distance between the quartiles of xs as a share of
// their median: the run-to-run noise a bound has to exceed before a
// difference between two commits means anything.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
