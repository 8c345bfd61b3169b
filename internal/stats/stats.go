// Package stats provides the small set of descriptive statistics used
// by the experiment harnesses: quantiles, five-number (boxplot)
// summaries, and time-series binning.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quantile returns the q-th quantile of xs (0 <= q <= 1) using linear
// interpolation between order statistics (type 7, the R default). It
// returns 0 for an empty slice and does not modify xs.
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return xs[0]
	}
	s := make([]float64, n)
	copy(s, xs)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return s[n-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Summary is a boxplot five-number summary plus the mean and count.
type Summary struct {
	N                        int
	Min, Q1, Median, Q3, Max float64
	Mean                     float64
}

// Summarize returns the Summary of xs.
func Summarize(xs []float64) Summary {
	return Summary{
		N:      len(xs),
		Min:    Quantile(xs, 0),
		Q1:     Quantile(xs, 0.25),
		Median: Quantile(xs, 0.5),
		Q3:     Quantile(xs, 0.75),
		Max:    Quantile(xs, 1),
		Mean:   Mean(xs),
	}
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.4g q1=%.4g med=%.4g q3=%.4g max=%.4g mean=%.4g",
		s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max, s.Mean)
}

// Improvement returns the ratio of a to b (how many times better a is
// than b), or +Inf when b is zero and a positive, or 1 when both are
// zero.
func Improvement(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return a / b
}

// ArgmaxKey returns the key with the largest value in m; ties break
// toward the smaller key so the result is deterministic. It returns
// 0 and false for an empty map.
func ArgmaxKey(m map[int]float64) (int, bool) {
	if len(m) == 0 {
		return 0, false
	}
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	best := keys[0]
	for _, k := range keys[1:] {
		if m[k] > m[best] {
			best = k
		}
	}
	return best, true
}
