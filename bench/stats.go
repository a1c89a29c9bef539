package main

import "sort"

// minBeyond is the tail a reported statistic needs: at least ten
// samples beyond it, on the side it summarizes. A statistic with a
// thinner tail is flagged low_sample in the output.
const minBeyond = 10

// estimate is one reported statistic with the samples it rests on.
// Beyond counts the samples ranked past the value: faster than a
// fast-decile time, above a fast-decile rate, and on either side of a
// median.
type estimate struct {
	Value  float64
	N      int
	Beyond int
}

func (e estimate) lowSample() bool { return e.Beyond < minBeyond }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// fastTime is the 10th percentile of times: the fastest decile of
// rounds, which host slow phases lasting seconds leave untouched as long
// as a tenth of the rounds run outside them. The rank floor(n/10) leaves
// exactly that many samples before it.
func fastTime(xs []float64) estimate {
	if len(xs) == 0 {
		return estimate{}
	}
	s := sortedCopy(xs)
	i := len(s) / 10
	return estimate{Value: s[i], N: len(s), Beyond: i}
}

// fastRate is the 90th percentile of rates, the mirror of fastTime.
func fastRate(xs []float64) estimate {
	if len(xs) == 0 {
		return estimate{}
	}
	s := sortedCopy(xs)
	i := len(s) - 1 - len(s)/10
	return estimate{Value: s[i], N: len(s), Beyond: len(s) / 10}
}

// median is the middle sample, or the mean of the middle two.
func median(xs []float64) estimate {
	n := len(xs)
	if n == 0 {
		return estimate{}
	}
	s := sortedCopy(xs)
	v := s[n/2]
	if n%2 == 0 {
		v = (s[n/2-1] + s[n/2]) / 2
	}
	return estimate{Value: v, N: n, Beyond: n / 2}
}
