// Package stats provides the measurement plumbing for the evaluation:
// time series of per-CPU metrics (the curves of Figs. 6, 7 and 9),
// scalar summaries (means, maxima, percentiles), and the
// successive-sample change statistics of Table 1.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Series is a uniformly sampled time series.
type Series struct {
	// Name labels the series (e.g. "cpu3.thermal_power").
	Name string
	// Step is the sampling interval in seconds.
	Step float64
	// Values holds one sample per step, starting at t = 0.
	Values []float64
}

// NewSeries creates an empty series with the given name and sampling
// interval in seconds.
func NewSeries(name string, step float64) *Series {
	return &Series{Name: name, Step: step}
}

// Append adds one sample.
func (s *Series) Append(v float64) { s.Values = append(s.Values, v) }

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// Time returns the timestamp of sample i in seconds.
func (s *Series) Time(i int) float64 { return float64(i) * s.Step }

// At returns sample i.
func (s *Series) At(i int) float64 { return s.Values[i] }

// Max returns the largest sample, or 0 for an empty series.
func (s *Series) Max() float64 {
	max := math.Inf(-1)
	for _, v := range s.Values {
		if v > max {
			max = v
		}
	}
	if math.IsInf(max, -1) {
		return 0
	}
	return max
}

// Min returns the smallest sample, or 0 for an empty series.
func (s *Series) Min() float64 {
	min := math.Inf(1)
	for _, v := range s.Values {
		if v < min {
			min = v
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}

// Mean returns the arithmetic mean, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	return Sum(s.Values) / float64(len(s.Values))
}

// Tail returns the mean over the final frac of the series (0 < frac <= 1),
// useful for steady-state values that exclude warm-up.
func (s *Series) Tail(frac float64) float64 {
	if len(s.Values) == 0 {
		return 0
	}
	start := int(float64(len(s.Values)) * (1 - frac))
	if start < 0 {
		start = 0
	}
	if start >= len(s.Values) {
		start = len(s.Values) - 1
	}
	v := s.Values[start:]
	return Sum(v) / float64(len(v))
}

// CSV renders "t,value" lines for plotting.
func (s *Series) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", s.Name)
	for i, v := range s.Values {
		fmt.Fprintf(&b, "%.3f,%.4f\n", s.Time(i), v)
	}
	return b.String()
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs, or 0 when empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Max returns the maximum of xs, or 0 when empty.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs, or 0 when empty.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It returns 0 when empty.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// SuccessiveChange reports the maximum and average relative change
// between successive samples, as percentages — the statistics of the
// paper's Table 1 ("we measured the power consumption during several
// hundreds of timeslices for each task, and compared the power
// consumption of successive timeslices"). Samples at or below zero are
// skipped as change bases.
func SuccessiveChange(xs []float64) (maxPct, avgPct float64) {
	if len(xs) < 2 {
		return 0, 0
	}
	var sum float64
	var n int
	for i := 1; i < len(xs); i++ {
		base := xs[i-1]
		if base <= 0 {
			continue
		}
		chg := math.Abs(xs[i]-base) / base * 100
		if chg > maxPct {
			maxPct = chg
		}
		sum += chg
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return maxPct, sum / float64(n)
}
