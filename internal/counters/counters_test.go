package counters

import (
	"testing"
	"testing/quick"
)

func TestEventString(t *testing.T) {
	if Cycles.String() != "cycles" {
		t.Errorf("Cycles.String() = %q", Cycles.String())
	}
	if MemTransactions.String() != "mem_transactions" {
		t.Errorf("MemTransactions.String() = %q", MemTransactions.String())
	}
	if got := Event(99).String(); got != "event(99)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}

func TestCountsAddSub(t *testing.T) {
	a := Counts{1, 2, 3, 4, 5, 6}
	b := Counts{10, 20, 30, 40, 50, 60}
	sum := a.Add(b)
	want := Counts{11, 22, 33, 44, 55, 66}
	if sum != want {
		t.Fatalf("Add = %v, want %v", sum, want)
	}
	if diff := sum.Sub(a); diff != b {
		t.Fatalf("Sub = %v, want %v", diff, b)
	}
}

func TestSubPanicsOnUnderflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sub underflow did not panic")
		}
	}()
	a := Counts{1}
	b := Counts{2}
	a.Sub(b)
}

func TestIsZero(t *testing.T) {
	var z Counts
	if !z.IsZero() {
		t.Error("zero Counts not IsZero")
	}
	z[3] = 1
	if z.IsZero() {
		t.Error("nonzero Counts reported IsZero")
	}
}

func TestRatesCounts(t *testing.T) {
	r := Rates{1000.4, 2000.6, 0, 10, 0.4, 0.6}
	c := r.Counts(1)
	want := Counts{1000, 2001, 0, 10, 0, 1}
	if c != want {
		t.Fatalf("Counts(1) = %v, want %v", c, want)
	}
	c2 := r.Counts(2)
	if c2[0] != 2001 { // 2000.8 rounds to 2001
		t.Fatalf("Counts(2)[0] = %d, want 2001", c2[0])
	}
}

func TestRatesScaleAdd(t *testing.T) {
	r := Rates{2, 4, 6, 8, 10, 12}
	half := r.Scale(0.5)
	want := Rates{1, 2, 3, 4, 5, 6}
	if half != want {
		t.Fatalf("Scale(0.5) = %v, want %v", half, want)
	}
	if got := half.Add(half); got != r {
		t.Fatalf("Add = %v, want %v", got, r)
	}
}

func TestBankAccumulateReadReset(t *testing.T) {
	var b Bank
	b.Accumulate(Counts{1, 1, 1, 1, 1, 1})
	b.Accumulate(Counts{2, 0, 0, 0, 0, 0})
	got := b.Read()
	if got[0] != 3 || got[5] != 1 {
		t.Fatalf("Read = %v", got)
	}
	b.Reset()
	if !b.Read().IsZero() {
		t.Fatal("Reset did not clear bank")
	}
}

// Property: for any sequence of accumulations, the sum of the interval
// deltas between successive reads equals the bank total (conservation
// of events) — the §3.2 "read the event counters at the beginning and
// at the end of the timeslice" accounting.
func TestQuickDeltaConservation(t *testing.T) {
	f := func(increments []uint32) bool {
		var b Bank
		var at, total Counts
		for i, inc := range increments {
			var c Counts
			c[i%int(NumEvents)] = uint64(inc % 10000)
			b.Accumulate(c)
			if i%3 == 0 {
				now := b.Read()
				total = total.Add(now.Sub(at))
				at = now
			}
		}
		total = total.Add(b.Read().Sub(at))
		return total == b.Read()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Rates.Counts is monotone in dt.
func TestQuickCountsMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		r := Rates{float64(a), float64(b), 1, 2, 3, 4}
		c1 := r.Counts(1)
		c5 := r.Counts(5)
		for i := range c1 {
			if c5[i] < c1[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
