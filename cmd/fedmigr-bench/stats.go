package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for an
// even count); NaN for no samples.
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

// spread is (max−min)/median: the pass-to-pass noise a metric's bound is
// compared against. 0 for fewer than two samples or a zero median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sorted(xs)
	m := median(s)
	if m == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / math.Abs(m)
}

// tailBeyond is how many samples must lie beyond a reported tail percentile.
const tailBeyond = 10

// tail returns the highest percentile that still has tailBeyond samples
// beyond it — the value with exactly tailBeyond larger samples — and that
// percentile. A percentile below the median says nothing about a tail, so
// fewer than 2·tailBeyond samples yield ok == false.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n < 2*tailBeyond {
		return 0, 0, false
	}
	s := sorted(xs)
	return s[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n), true
}
