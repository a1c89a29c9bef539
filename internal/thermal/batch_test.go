package thermal

import (
	"math"
	"testing"
)

// Step's contract: one closed-form step over n milliseconds equals
// n consecutive 1 ms steps at the same power, up to floating-point
// rounding — the exactness guarantee the async engine's quanta build on.
func TestStepComposesLikeUnitSteps(t *testing.T) {
	p := Properties{R: 0.2, C: 75, AmbientC: 25}
	for _, n := range []int{2, 7, 64, 1000} {
		a := NewNode(p)
		b := NewNode(p)
		a.TempC, b.TempC = 31.7, 31.7
		for i := 0; i < n; i++ {
			a.Step(48, 1)
		}
		b.Step(48, float64(n))
		if d := math.Abs(a.TempC - b.TempC); d > 1e-9 {
			t.Errorf("n=%d: iterated %.12f vs exact %.12f (|Δ|=%.2e)", n, a.TempC, b.TempC, d)
		}
	}
}

// StepOverBatched's contract: the closed form reproduces n per-ms
// StepOver calls against a geometrically relaxing reference — the exact
// sequence the lockstep engine performs for unit hotspots riding on a
// core that is itself stepping toward its steady temperature.
func TestStepOverBatchedMatchesIteration(t *testing.T) {
	coreProps := Properties{R: 0.2, C: 75, AmbientC: 25} // τ = 15 s
	unitProps := Properties{R: 0.3, C: 2.0 / 0.3}        // τ = 2 s
	for _, n := range []int64{1, 2, 5, 64, 500} {
		core := NewNode(coreProps)
		core.TempC = 30
		unit := NewNode(unitProps)
		unit.TempC = 33
		refStart := core.TempC
		steady := coreProps.SteadyTemp(52)

		iter := *unit
		c := *core
		for i := int64(0); i < n; i++ {
			c.Step(52, 1)
			iter.StepOver(9, 1, c.TempC)
		}
		unit.StepOverBatched(9, n, refStart, steady, coreProps.DecayPerMS())
		if d := math.Abs(iter.TempC - unit.TempC); d > 1e-9 {
			t.Errorf("n=%d: iterated %.12f vs batched %.12f (|Δ|=%.2e)", n, iter.TempC, unit.TempC, d)
		}
	}
}

// The degenerate case: hotspot and reference sharing one time constant.
func TestStepOverBatchedEqualTimeConstants(t *testing.T) {
	props := Properties{R: 0.25, C: 8, AmbientC: 25} // τ = 2 s for both
	ref := NewNode(props)
	ref.TempC = 40
	unit := NewNode(props)
	unit.TempC = 28
	steady := props.SteadyTemp(30)

	iter := *unit
	c := *ref
	const n = 200
	for i := 0; i < n; i++ {
		c.Step(30, 1)
		iter.StepOver(4, 1, c.TempC)
	}
	unit.StepOverBatched(4, n, 40, steady, props.DecayPerMS())
	if d := math.Abs(iter.TempC - unit.TempC); d > 1e-7 {
		t.Errorf("equal-τ case: iterated %.10f vs batched %.10f", iter.TempC, unit.TempC)
	}
}

// Engage + Account compose to exactly Decide, including the accounting.
func TestEngageAccountEqualsDecide(t *testing.T) {
	a := &Throttle{LimitW: 40}
	b := &Throttle{LimitW: 40}
	inputs := []float64{38, 39.9, 40, 41, 40.1, 39.9, 39.8, 39.74, 35, 42, 39.7}
	for i, v := range inputs {
		da := a.Decide(v)
		db := b.Engage(v)
		b.Account(1)
		if da != db || a.Engaged() != b.Engaged() {
			t.Fatalf("step %d: Decide=%v Engage=%v", i, da, db)
		}
	}
	if a.HaltedTicks != b.HaltedTicks || a.TotalTicks != b.TotalTicks {
		t.Fatalf("accounting diverged: %d/%d vs %d/%d", a.HaltedTicks, a.TotalTicks, b.HaltedTicks, b.TotalTicks)
	}
	// Multi-tick accounting attributes whole quanta to the state.
	c := &Throttle{LimitW: 40}
	c.Engage(45)
	c.Account(7)
	if c.HaltedTicks != 7 || c.TotalTicks != 7 {
		t.Fatalf("quantum accounting: %d/%d", c.HaltedTicks, c.TotalTicks)
	}
}

func TestDecayPerMS(t *testing.T) {
	p := Properties{R: 0.2, C: 75, AmbientC: 25}
	want := math.Exp(-0.001 / 15.0)
	if d := p.DecayPerMS(); math.Abs(d-want) > 1e-15 {
		t.Errorf("DecayPerMS = %v, want %v", d, want)
	}
}
