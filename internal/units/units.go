// Package units implements the paper's §7 multiple-temperature
// extension: "Future work on energy-aware scheduling could incorporate
// a more elaborate thermal model featuring multiple temperatures, and
// could characterize tasks not only by their power consumption, but
// also by the location at which energy is dissipated. This way,
// energy-aware scheduling would even be beneficial for tasks having the
// same power consumption, if they dissipate energy at different
// functional units, as is the case with floating point and integer
// applications."
//
// The package maps event-counter activity onto three coarse functional
// units — the integer core, the floating-point unit, and the memory
// interface — and provides per-unit energy attribution plus per-task
// unit profiles (the §3.3 exponential average, kept per unit).
package units

import (
	"fmt"

	"energysched/internal/counters"
	"energysched/internal/energy"
	"energysched/internal/profile"
)

// Kind identifies one functional unit.
type Kind int

const (
	// IntCore covers the integer pipelines and branch machinery.
	IntCore Kind = iota
	// FPUnit covers the floating-point/SIMD execution unit.
	FPUnit
	// MemIF covers caches beyond L1 and the memory interface.
	MemIF
	// NumUnits is the number of modeled functional units.
	NumUnits
)

var kindNames = [NumUnits]string{"int", "fp", "mem"}

// String names the unit.
func (k Kind) String() string {
	if k < 0 || k >= NumUnits {
		return fmt.Sprintf("unit(%d)", int(k))
	}
	return kindNames[k]
}

// unitOfEvent maps each counter event to the functional unit where its
// energy is dissipated. Cycles (the static power folded into the cycles
// weight) are spread across the units by staticShare below: clocks and
// leakage burn everywhere.
var unitOfEvent = [counters.NumEvents]Kind{
	counters.Cycles:          IntCore, // placeholder; cycles use staticShare
	counters.UopsRetired:     IntCore,
	counters.FPOps:           FPUnit,
	counters.L2Misses:        MemIF,
	counters.MemTransactions: MemIF,
	counters.Branches:        IntCore,
}

// staticShare spreads the cycles-proportional static power over the
// units, roughly by area: the integer core is the largest consumer.
var staticShare = [NumUnits]float64{IntCore: 0.5, FPUnit: 0.25, MemIF: 0.25}

// Energies is per-unit energy in Joules.
type Energies [NumUnits]float64

// Total returns the summed energy.
func (e Energies) Total() float64 {
	t := 0.0
	for _, v := range e {
		t += v
	}
	return t
}

// Peak returns the largest per-unit energy and its unit.
func (e Energies) Peak() (Kind, float64) {
	k, max := Kind(0), e[0]
	for u := Kind(1); u < NumUnits; u++ {
		if e[u] > max {
			k, max = u, e[u]
		}
	}
	return k, max
}

// Split attributes a counter delta's energy to functional units under
// the given weights (Eq. 1 evaluated per unit). The result sums to the
// estimator's total energy for the same delta.
func Split(w energy.Weights, delta counters.Counts) Energies {
	var out Energies
	for ev := 0; ev < int(counters.NumEvents); ev++ {
		e := w[ev] * float64(delta[ev])
		if e == 0 {
			continue
		}
		if counters.Event(ev) == counters.Cycles {
			for u := Kind(0); u < NumUnits; u++ {
				out[u] += e * staticShare[u]
			}
			continue
		}
		out[unitOfEvent[ev]] += e
	}
	return out
}

// SplitExact is Split over exact (fractional) event counts, used by the
// simulation engines when attributing a quantum's energy to functional
// units without integer-rounding ripple.
func SplitExact(w energy.Weights, delta counters.Frac) Energies {
	var out Energies
	for ev := 0; ev < int(counters.NumEvents); ev++ {
		e := w[ev] * delta[ev]
		if e == 0 {
			continue
		}
		if counters.Event(ev) == counters.Cycles {
			for u := Kind(0); u < NumUnits; u++ {
				out[u] += e * staticShare[u]
			}
			continue
		}
		out[unitOfEvent[ev]] += e
	}
	return out
}

// Profile is a task's per-unit energy profile: the expected power each
// functional unit will draw during the task's next timeslice, tracked
// with the same variable-period exponential average as the scalar
// profile (§3.3).
type Profile struct {
	avgs [NumUnits]*profile.ExpAvg
}

// NewProfile returns an unprimed per-unit profile.
func NewProfile() *Profile {
	p := &Profile{}
	for u := range p.avgs {
		p.avgs[u] = profile.NewExpAvg(profile.ProfileStdWeight, profile.StdTimesliceMS)
	}
	return p
}

// Seed initializes every unit from a scalar power estimate, split by
// staticShare (the best guess before any measurement).
func (p *Profile) Seed(watts float64) {
	for u := range p.avgs {
		p.avgs[u].Seed(watts * staticShare[u])
	}
}

// AddSample folds in per-unit energies observed over ranMS milliseconds
// of execution.
func (p *Profile) AddSample(e Energies, ranMS float64) {
	if ranMS <= 0 {
		return
	}
	for u := range p.avgs {
		p.avgs[u].Update(e[u]/(ranMS/1000), ranMS)
	}
}

// Watts returns the profiled power of one unit.
func (p *Profile) Watts(u Kind) float64 { return p.avgs[u].Value() }

// Vector returns all per-unit powers.
func (p *Profile) Vector() Energies {
	var v Energies
	for u := range p.avgs {
		v[u] = p.avgs[u].Value()
	}
	return v
}

// Primed reports whether the profile has data.
func (p *Profile) Primed() bool { return p.avgs[0].Primed() }
