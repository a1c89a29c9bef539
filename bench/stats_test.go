package main

import (
	"math/rand"
	"slices"
	"testing"
)

// seq returns 1..n in a shuffled order, so the helpers cannot rely on
// sorted input.
func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(int64(n))).Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return xs
}

func TestEstimators(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func([]float64) estimate
		in   []float64
		want estimate
		low  bool
	}{
		{"fastTime 100", fastTime, seq(100), estimate{Value: 11, N: 100, Beyond: 10}, false},
		{"fastTime 20", fastTime, seq(20), estimate{Value: 3, N: 20, Beyond: 2}, true},
		{"fastTime 1", fastTime, []float64{7}, estimate{Value: 7, N: 1, Beyond: 0}, true},
		{"fastTime ties", fastTime, []float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, estimate{Value: 5, N: 11, Beyond: 1}, true},
		{"median ties", median, make([]float64, 20), estimate{Value: 0, N: 20, Beyond: 10}, false},
		{"fastTime empty", fastTime, nil, estimate{}, true},
		{"fastRate 100", fastRate, seq(100), estimate{Value: 90, N: 100, Beyond: 10}, false},
		{"fastRate 9", fastRate, seq(9), estimate{Value: 9, N: 9, Beyond: 0}, true},
		{"fastRate empty", fastRate, nil, estimate{}, true},
		{"median odd", median, []float64{3, 1, 2}, estimate{Value: 2, N: 3, Beyond: 1}, true},
		{"median even", median, []float64{4, 1, 3, 2}, estimate{Value: 2.5, N: 4, Beyond: 2}, true},
		{"median 21", median, seq(21), estimate{Value: 11, N: 21, Beyond: 10}, false},
		{"median empty", median, nil, estimate{}, true},
	} {
		in := slices.Clone(tc.in)
		got := tc.fn(tc.in)
		if got != tc.want || got.lowSample() != tc.low {
			t.Errorf("%s: got %+v low_sample=%v, want %+v low_sample=%v", tc.name, got, got.lowSample(), tc.want, tc.low)
		}
		if !slices.Equal(in, tc.in) {
			t.Errorf("%s: the input was modified", tc.name)
		}
	}
}
