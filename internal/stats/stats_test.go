package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("x", 0.5)
	for _, v := range []float64{1, 2, 3, 4} {
		s.Append(v)
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Time(2) != 1.0 {
		t.Fatalf("Time(2) = %v", s.Time(2))
	}
	if s.Max() != 4 || s.Min() != 1 || s.Mean() != 2.5 {
		t.Fatalf("Max/Min/Mean = %v/%v/%v", s.Max(), s.Min(), s.Mean())
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := NewSeries("empty", 1)
	if s.Max() != 0 || s.Min() != 0 || s.Mean() != 0 || s.Tail(0.5) != 0 {
		t.Fatal("empty series aggregates should be 0")
	}
}

func TestSeriesTail(t *testing.T) {
	s := NewSeries("x", 1)
	for i := 0; i < 10; i++ {
		if i < 5 {
			s.Append(0)
		} else {
			s.Append(10)
		}
	}
	if got := s.Tail(0.5); got != 10 {
		t.Fatalf("Tail(0.5) = %v, want 10", got)
	}
	if got := s.Tail(1); got != 5 {
		t.Fatalf("Tail(1) = %v, want 5", got)
	}
}

func TestCSV(t *testing.T) {
	s := NewSeries("power", 1)
	s.Append(42)
	out := s.CSV()
	if !strings.Contains(out, "# power") || !strings.Contains(out, "0.000,42.0000") {
		t.Fatalf("CSV output:\n%s", out)
	}
}

func TestScalarHelpers(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if Sum(xs) != 10 || Mean(xs) != 2.5 || Max(xs) != 4 || Min(xs) != 1 {
		t.Fatal("scalar helpers wrong")
	}
	if Mean(nil) != 0 || Max(nil) != 0 || Min(nil) != 0 {
		t.Fatal("empty-slice helpers should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
	// Does not mutate input.
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if ys[0] != 3 {
		t.Error("Percentile sorted input in place")
	}
}

func TestSuccessiveChange(t *testing.T) {
	// 100 → 110 (10%) → 99 (10%): max 10, avg 10.
	max, avg := SuccessiveChange([]float64{100, 110, 99})
	if math.Abs(max-10) > 1e-9 || math.Abs(avg-10) > 1e-9 {
		t.Fatalf("max=%v avg=%v", max, avg)
	}
	// Constant series: zero change.
	max, avg = SuccessiveChange([]float64{5, 5, 5, 5})
	if max != 0 || avg != 0 {
		t.Fatalf("constant: max=%v avg=%v", max, avg)
	}
	// Too short / empty.
	if m, a := SuccessiveChange([]float64{1}); m != 0 || a != 0 {
		t.Fatal("short series should be 0,0")
	}
	// Zero base samples are skipped.
	max, avg = SuccessiveChange([]float64{0, 10, 10})
	if max != 0 || avg != 0 {
		t.Fatalf("zero-base: max=%v avg=%v", max, avg)
	}
}

// Property: max >= avg for any successive-change computation.
func TestQuickSuccessiveChangeMaxGEAvg(t *testing.T) {
	f := func(raw []uint16) bool {
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r%1000) + 1 // strictly positive
		}
		max, avg := SuccessiveChange(xs)
		return max >= avg-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []uint16, p1, p2 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		a, b := float64(p1%101), float64(p2%101)
		if a > b {
			a, b = b, a
		}
		pa, pb := Percentile(xs, a), Percentile(xs, b)
		return pa <= pb+1e-12 && pa >= Min(xs)-1e-12 && pb <= Max(xs)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
