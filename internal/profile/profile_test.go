package profile

import (
	"math"
	"testing"
	"testing/quick"
)

func TestExpAvgFirstSampleInitializes(t *testing.T) {
	a := NewExpAvg(0.5, 100)
	if a.Primed() {
		t.Fatal("new average should be unprimed")
	}
	a.Update(40, 100)
	if !a.Primed() || a.Value() != 40 {
		t.Fatalf("after first sample: primed=%v value=%v", a.Primed(), a.Value())
	}
}

func TestExpAvgStandardPeriod(t *testing.T) {
	a := NewExpAvg(0.5, 100)
	a.Seed(40)
	a.Update(60, 100)
	// p=0.5: 0.5·60 + 0.5·40 = 50.
	if math.Abs(a.Value()-50) > 1e-12 {
		t.Fatalf("value = %v, want 50", a.Value())
	}
}

// §3.3: "If the sampling period is shorter than a standard timeslice, we
// give the past a bigger weight … Conversely, if the sampling period is
// longer … a smaller weight."
func TestExpAvgVariablePeriodWeights(t *testing.T) {
	a := NewExpAvg(0.5, 100)
	wShort := a.WeightFor(50)
	wStd := a.WeightFor(100)
	wLong := a.WeightFor(200)
	if !(wShort < wStd && wStd < wLong) {
		t.Fatalf("weights not ordered: %v %v %v", wShort, wStd, wLong)
	}
	if math.Abs(wStd-0.5) > 1e-12 {
		t.Fatalf("standard weight = %v, want 0.5", wStd)
	}
	if a.WeightFor(0) != 0 || a.WeightFor(-5) != 0 {
		t.Fatal("non-positive period should have zero weight")
	}
}

// Composition consistency: updating with two half-timeslices at the same
// sample must equal one full-timeslice update.
func TestExpAvgComposition(t *testing.T) {
	a := NewExpAvg(0.5, 100)
	b := NewExpAvg(0.5, 100)
	a.Seed(40)
	b.Seed(40)
	a.Update(60, 50)
	a.Update(60, 50)
	b.Update(60, 100)
	if math.Abs(a.Value()-b.Value()) > 1e-12 {
		t.Fatalf("composition broken: %v vs %v", a.Value(), b.Value())
	}
}

func TestExpAvgIgnoresNonPositivePeriods(t *testing.T) {
	a := NewExpAvg(0.5, 100)
	a.Seed(40)
	a.Update(100, 0)
	a.Update(100, -10)
	if a.Value() != 40 {
		t.Fatalf("value changed on bogus period: %v", a.Value())
	}
}

func TestExpAvgConvergesToConstant(t *testing.T) {
	a := NewExpAvg(0.3, 100)
	a.Seed(10)
	for i := 0; i < 100; i++ {
		a.Update(55, 100)
	}
	if math.Abs(a.Value()-55) > 1e-9 {
		t.Fatalf("did not converge: %v", a.Value())
	}
}

func TestNewExpAvgPanics(t *testing.T) {
	for _, c := range []struct{ p, l float64 }{{0, 100}, {1.5, 100}, {0.5, 0}, {-0.1, 100}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewExpAvg(%v,%v) did not panic", c.p, c.l)
				}
			}()
			NewExpAvg(c.p, c.l)
		}()
	}
}

func TestTaskProfilePowerConversion(t *testing.T) {
	p := NewTaskProfile()
	// 6.1 J over 100 ms = 61 W.
	p.AddSample(6.1, 100)
	if math.Abs(p.Watts()-61) > 1e-9 {
		t.Fatalf("Watts = %v, want 61", p.Watts())
	}
	// Zero-duration samples are ignored.
	p.AddSample(100, 0)
	if math.Abs(p.Watts()-61) > 1e-9 {
		t.Fatal("zero-duration sample changed profile")
	}
}

// §3.3: "short term changes in a task's behavior do not cause the task's
// energy profile to change significantly, whereas a permanent change is
// reflected in the energy profile after an appropriate time."
func TestTaskProfileSpikeVsPermanentChange(t *testing.T) {
	p := NewTaskProfile()
	for i := 0; i < 20; i++ {
		p.AddSample(4.0, 100) // 40 W steady
	}
	// One-slice spike to 60 W.
	p.AddSample(6.0, 100)
	afterSpike := p.Watts()
	if afterSpike > 52 {
		t.Fatalf("profile overreacted to spike: %v W", afterSpike)
	}
	p.AddSample(4.0, 100)
	// Permanent change to 60 W: profile should reflect it within ~5 slices.
	for i := 0; i < 5; i++ {
		p.AddSample(6.0, 100)
	}
	if p.Watts() < 57 {
		t.Fatalf("profile too slow to adopt permanent change: %v W", p.Watts())
	}
}

func TestSeededTaskProfile(t *testing.T) {
	p := NewSeededTaskProfile(47)
	if !p.Primed() || p.Watts() != 47 {
		t.Fatalf("seeded profile: primed=%v watts=%v", p.Primed(), p.Watts())
	}
	// The seed acts as the previous average, not as an immutable value.
	p.AddSample(6.1, 100)
	if p.Watts() <= 47 || p.Watts() >= 61 {
		t.Fatalf("seeded profile update = %v, want in (47, 61)", p.Watts())
	}
}

func TestCPUPowerThermalRatio(t *testing.T) {
	c := NewCPUPower(60, 0.01, 1, 13.6)
	if math.Abs(c.ThermalPower()-13.6) > 1e-12 {
		t.Fatalf("initial thermal power = %v", c.ThermalPower())
	}
	if math.Abs(c.ThermalRatio()-13.6/60) > 1e-12 {
		t.Fatalf("ratio = %v", c.ThermalRatio())
	}
	// Zero max power → ratio 0 (disabled).
	d := NewCPUPower(0, 0.01, 1, 10)
	if d.ThermalRatio() != 0 {
		t.Fatal("disabled ratio should be 0")
	}
}

// Thermal power must follow a power step the way temperature does:
// slow exponential approach (Fig. 3).
func TestCPUPowerFollowsStepSlowly(t *testing.T) {
	// Weight calibrated for τ = 15 s at 1 ms updates: 1−e^(−0.001/15).
	w := 1 - math.Exp(-0.001/15)
	c := NewCPUPower(60, w, 1, 13.6)
	// Apply 61 W for one time constant (15 000 ticks of 1 ms).
	for i := 0; i < 15000; i++ {
		c.AddEnergy(0.061, 1)
	}
	rise := c.ThermalPower() - 13.6
	wantRise := (61 - 13.6) * (1 - 1/math.E)
	if math.Abs(rise-wantRise) > 0.5 {
		t.Fatalf("rise after τ = %v, want %v", rise, wantRise)
	}
	// After many time constants it converges to the applied power.
	for i := 0; i < 150000; i++ {
		c.AddEnergy(0.061, 1)
	}
	if math.Abs(c.ThermalPower()-61) > 0.1 {
		t.Fatalf("steady thermal power = %v, want 61", c.ThermalPower())
	}
}

func TestPlacementTable(t *testing.T) {
	tab := NewPlacementTable(45)
	if got := tab.Lookup(7); got != 45 {
		t.Fatalf("default lookup = %v, want 45", got)
	}
	tab.Record(7, 61)
	if got := tab.Lookup(7); got != 61 {
		t.Fatalf("after record: lookup = %v, want 61", got)
	}
	tab.Record(7, 38) // overwrite keeps the estimate fresh
	if tab.Lookup(7) != 38 {
		t.Fatal("record did not overwrite")
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d", tab.Len())
	}
}

// Property: the average always lies between the extremes of everything
// it has seen (seed included).
func TestQuickExpAvgBounded(t *testing.T) {
	f := func(seedRaw uint8, samples []uint8) bool {
		a := NewExpAvg(0.5, 100)
		lo := float64(seedRaw)
		hi := lo
		a.Seed(lo)
		for _, s := range samples {
			v := float64(s)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			a.Update(v, 1+float64(s%200))
			if a.Value() < lo-1e-9 || a.Value() > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: longer periods pull the average strictly closer to the
// sample (monotonicity of WeightFor).
func TestQuickLongerPeriodMovesFurther(t *testing.T) {
	f := func(p1Raw, p2Raw uint16) bool {
		p1 := 1 + float64(p1Raw%1000)
		p2 := 1 + float64(p2Raw%1000)
		if p1 == p2 {
			return true
		}
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		a := NewExpAvg(0.5, 100)
		b := NewExpAvg(0.5, 100)
		a.Seed(10)
		b.Seed(10)
		a.Update(90, p1)
		b.Update(90, p2)
		return a.Value() < b.Value()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Phase-shifting input faster than the average tracks (§3.3): a square
// wave flipping every quarter timeslice must be smoothed — the average
// stays strictly inside the band the inputs span, pinned near the wave's
// mean — while a permanent shift still lands within the geometric lag
// bound |v_n − x| = (1−p(τ))^n · |v_0 − x|.
func TestExpAvgPhaseShiftingInput(t *testing.T) {
	const lo, hi = 20.0, 60.0
	a := NewExpAvg(ProfileStdWeight, StdTimesliceMS)
	a.Seed((lo + hi) / 2)

	// 200 quarter-timeslice (25 ms) phases, alternating hi/lo.
	const phaseMS = StdTimesliceMS / 4
	w := a.WeightFor(phaseMS) // p(25ms) = 1 − 0.5^0.25 ≈ 0.159
	for i := 0; i < 200; i++ {
		s := hi
		if i%2 == 1 {
			s = lo
		}
		a.Update(s, phaseMS)
	}
	// Steady-state ripple of the alternating fixed point: the average
	// oscillates ±w·(hi−lo)/(2·(2−w)) around the mean — bound it loosely
	// by the single-step excursion from the mean, w/2·(hi−lo) ≈ 3.2 W.
	mean := (lo + hi) / 2
	ripple := w / 2 * (hi - lo)
	if d := math.Abs(a.Value() - mean); d > ripple*1.001 {
		t.Fatalf("phase-shifting input: average %.3f strayed %.3f W from mean %v (ripple bound %.3f)", a.Value(), d, mean, ripple)
	}
	if a.Value() <= lo || a.Value() >= hi {
		t.Fatalf("average %.3f escaped the input band (%v, %v)", a.Value(), lo, hi)
	}

	// Permanent shift to hi: the residual decays geometrically, so after
	// n updates the gap is exactly (1−w)^n of the initial gap.
	v0 := a.Value()
	const n = 12
	for i := 0; i < n; i++ {
		a.Update(hi, phaseMS)
	}
	wantGap := math.Pow(1-w, n) * (hi - v0)
	if gotGap := hi - a.Value(); math.Abs(gotGap-wantGap) > 1e-9 {
		t.Fatalf("tracking lag: residual gap %.9f, geometric bound predicts %.9f", gotGap, wantGap)
	}
}

// Variable-period updates must compose exactly like unit-dt stepping:
// driving one average at dt=1 ms through a phase-shifting signal and
// another with a single arbitrary-length update per constant segment
// (via UpdateWeighted, the engines' settle path) yields bit-close
// values. This is the property that lets the async engines fold idle
// gaps — and the fault injector's recalibration windows —
// into one closed-form update.
func TestExpAvgSegmentedEqualsUnitStepping(t *testing.T) {
	segs := []struct {
		ms     int
		sample float64
	}{{7, 55}, {1, 20}, {130, 20}, {25, 48}, {3, 48}, {64, 31}, {250, 62}, {12, 62}}

	unit := NewExpAvg(ProfileStdWeight, StdTimesliceMS)
	seg := NewExpAvg(ProfileStdWeight, StdTimesliceMS)
	unit.Seed(40)
	seg.Seed(40)
	for _, s := range segs {
		for i := 0; i < s.ms; i++ {
			unit.Update(s.sample, 1)
		}
		seg.UpdateWeighted(s.sample, seg.WeightFor(float64(s.ms)))
	}
	// One-ms stepping compounds rounding, so compare to a few ulps of
	// headroom rather than exact equality.
	if d := math.Abs(unit.Value() - seg.Value()); d > 1e-9 {
		t.Fatalf("segmented update diverged from unit stepping by %g (unit %.12f, segmented %.12f)", d, unit.Value(), seg.Value())
	}
}
