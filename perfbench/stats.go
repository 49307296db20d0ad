package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value (mean of the two middle ones for an even
// count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), so the spreads this
// benchmark prints are the ones a reader recomputes from the values.
// With fewer than two samples both quartiles are the lone value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// tail is the highest percentile of xs that has at least ten samples
// above it, computed exactly from the samples (no histogram buckets).
// It returns the value, that percentile, and the sample count. With
// fewer than eleven samples no percentile qualifies; the maximum is
// returned with percentile 100 so the caller can flag it.
func tail(xs []float64) (value, pct float64, n int) {
	s := sorted(xs)
	n = len(s)
	switch {
	case n == 0:
		return math.NaN(), 0, 0
	case n < 11:
		return s[n-1], 100, n
	}
	k := n - 11 // s[k] has exactly ten samples after it
	return s[k], 100 * float64(k+1) / float64(n), n
}
