package main

import "testing"

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},   // the median of 19 leaves 9 beyond it
		{20, 0.5}, // ... of 20 leaves 10
		{99, 0.5},
		{100, 0.9},
		{999, 0.9},
		{1000, 0.99},
		{50000, 0.99}, // nothing above p99 is reported
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for q, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.99: 99, 0.999: 100} {
		if got := percentile(xs, q); got != want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", q, got, want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}
