package profile

import (
	"testing"
	"testing/quick"
)

// CrossSteps must agree with literally iterating the geometric
// relaxation: its n is the first step at which the condition holds, and
// the condition must not hold at n−1.
func TestCrossStepsMatchesIteration(t *testing.T) {
	iterate := func(v0, target, retain, threshold float64, rising bool, maxN int64) (int64, bool) {
		v := v0
		for n := int64(1); n <= maxN; n++ {
			v = target + (v-target)*retain
			if rising && v >= threshold {
				return n, true
			}
			if !rising && v < threshold {
				return n, true
			}
		}
		return 0, false
	}
	cases := []struct {
		v0, target, retain, threshold float64
		rising                        bool
	}{
		{13.6, 61, 0.99993, 40, true},    // engage: metric rising toward a hot task's power
		{40, 1.7, 0.99993, 39.75, false}, // disengage: halted CPU decaying to idle power
		{30, 45, 0.999, 44.999, true},    // crawl: asymptote barely above the threshold
		{30, 40, 0.9, 35, true},          // fast metric
		{50, 10, 0.95, 20, false},
	}
	for _, c := range cases {
		n, ok := CrossSteps(c.v0, c.target, c.retain, c.threshold, c.rising)
		wantN, wantOK := iterate(c.v0, c.target, c.retain, c.threshold, c.rising, 10_000_000)
		if ok != wantOK {
			t.Errorf("%+v: ok=%v want %v", c, ok, wantOK)
			continue
		}
		if ok && n != wantN {
			t.Errorf("%+v: n=%d want %d", c, n, wantN)
		}
	}
	// Never-crossing cases.
	if _, ok := CrossSteps(20, 30, 0.999, 35, true); ok {
		t.Error("asymptote below threshold should not cross rising")
	}
	if _, ok := CrossSteps(40, 38, 0.999, 35, false); ok {
		t.Error("asymptote above threshold should not cross falling")
	}
	if _, ok := CrossSteps(20, 30, 1.5, 25, true); ok {
		t.Error("invalid retention should report no crossing")
	}
}

// Property: for random geometries, the analytic crossing is never later
// than the iterated one and at most one step early (the planner backs
// off one extra step, so ±1 is the tolerated envelope; in practice they
// are equal — asserted above for fixed cases).
func TestQuickCrossStepsEnvelope(t *testing.T) {
	f := func(a, b, c uint16, rising bool) bool {
		v0 := 10 + float64(a%500)/10
		target := 10 + float64(b%500)/10
		threshold := 10 + float64(c%500)/10
		retain := 0.999
		n, ok := CrossSteps(v0, target, retain, threshold, rising)
		v := v0
		var wantN int64
		var wantOK bool
		for k := int64(1); k <= 200_000; k++ {
			v = target + (v-target)*retain
			if (rising && v >= threshold) || (!rising && v < threshold) {
				wantN, wantOK = k, true
				break
			}
		}
		if !wantOK {
			return true // may or may not be analytic-crossable; planner treats !ok as unbounded
		}
		if !ok {
			// Analytic says never, iteration crossed: only legitimate at
			// the very first step (v0 already past the threshold is
			// reported as n=1, so this should not happen).
			return false
		}
		return n >= wantN-1 && n <= wantN+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// RetentionPerMS is the geometric ratio of the metric's 1 ms updates.
func TestRetentionPerMS(t *testing.T) {
	c := NewCPUPower(40, 0.0001, 1, 13.6)
	retain := c.RetentionPerMS()
	// Feed a constant 50 W for 100 ms and compare with the closed form.
	ref := NewCPUPower(40, 0.0001, 1, 13.6)
	for i := 0; i < 100; i++ {
		ref.AddEnergy(0.05, 1)
	}
	closed := 50 + (13.6-50)*pow(retain, 100)
	if d := abs(ref.ThermalPower() - closed); d > 1e-9 {
		t.Errorf("closed form diverges from iteration: %.12f vs %.12f", ref.ThermalPower(), closed)
	}
}

// RetentionPerMS equals 1 − ThermalWeightFor(1) bit for bit, and
// reading it leaves the weight memo alone: the weight of the period
// last asked for is served from the memo afterwards.
func TestRetentionPerMSKeepsWeightMemo(t *testing.T) {
	for _, tc := range []struct{ weight, updateMS float64 }{
		{0.0001, 1}, {0.0037, 1}, {0.05, 10}, {0.5, 100},
	} {
		c := NewCPUPower(40, tc.weight, tc.updateMS, 13.6)
		w7 := c.ThermalWeightFor(7)
		retain := c.RetentionPerMS()
		if c.thermal.lastPeriod != 7 || c.thermal.lastW != w7 {
			t.Errorf("weight %v: RetentionPerMS moved the memo to period %v", tc.weight, c.thermal.lastPeriod)
		}
		if want := 1 - c.ThermalWeightFor(1); retain != want {
			t.Errorf("weight %v: RetentionPerMS %v, want 1 − WeightFor(1) = %v", tc.weight, retain, want)
		}
	}
}

func pow(b float64, n int) float64 {
	v := 1.0
	for i := 0; i < n; i++ {
		v *= b
	}
	return v
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
