package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 5, 1000}, 5},
		{[]float64{-1, -3}, -2},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 {
		t.Error("median must not reorder its input")
	}
}

func TestSpread(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 0},
		{[]float64{10, 10, 10}, 0},
		{[]float64{9, 10, 11}, 0.2},
		{[]float64{0, 0, 0}, 0},
	}
	for _, c := range cases {
		if got := spread(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// seq returns 1..n in a scrambled order.
func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[(i*7)%n] = float64(i + 1)
	}
	return out
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n       int
		ok      bool
		value   float64
		percent float64
	}{
		{0, false, 0, 0},
		{16, false, 0, 0}, // the tail would sit below the median
		{19, false, 0, 0},
		{20, true, 10, 50},
		{100, true, 90, 90},
		{600, true, 590, 100 * 590.0 / 600},
	}
	for _, c := range cases {
		xs := seq(c.n)
		v, pct, ok := tail(xs)
		if ok != c.ok {
			t.Errorf("n=%d: ok=%v, want %v", c.n, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if v != c.value || math.Abs(pct-c.percent) > 1e-9 {
			t.Errorf("n=%d: tail = (%v, p%v), want (%v, p%v)", c.n, v, pct, c.value, c.percent)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail value, want %d", c.n, beyond, tailBeyond)
		}
	}
}
