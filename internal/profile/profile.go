// Package profile implements the paper's task energy profiles (§3.3)
// and the per-CPU calculation parameters of §4.3 (runqueue power,
// thermal power, maximum power, and the two ratios).
//
// The core primitive is the variable-period exponential average: the
// paper extends the textbook exponential average
//
//	x̄ᵢ = p·xᵢ + (1−p)·x̄ᵢ₋₁                         (Eq. 2)
//
// to sampling periods of varying length, because a task rarely runs for
// exactly one standard timeslice — it may block any time or be preempted
// (§3.3). The weight applied to a sample covering period τ is derived
// from the standard weight p for the standard timeslice L by
//
//	p(τ) = 1 − (1−p)^(τ/L)
//
// which gives the past a bigger weight for short periods and a smaller
// weight for long ones — exactly the compensation the paper describes —
// and makes the average *composition-consistent*: two back-to-back
// updates with periods τ₁ and τ₂ at the same sample value decay the past
// exactly like one update with period τ₁+τ₂.
package profile

import (
	"fmt"
	"math"
)

// ExpAvg is a variable-period exponentially weighted moving average.
type ExpAvg struct {
	// StdWeight is the weight p given to the current sample when the
	// sampling period equals StdPeriod.
	StdWeight float64
	// StdPeriod is the standard sampling period (the standard
	// timeslice length for task profiles) in milliseconds.
	StdPeriod float64
	// value is the current average.
	value float64
	// primed is false until the first update; the first sample
	// initializes the average outright unless a Seed was set.
	primed bool
	// lastPeriod/lastW cache the last WeightFor computation: updates
	// arrive in long runs of identical periods (the engines' quantum
	// lengths), and the math.Pow dominates the update cost.
	lastPeriod float64
	lastW      float64
}

// NewExpAvg creates an average with the given standard weight and
// period. It panics on parameters outside (0,1] / (0,∞), which are
// programmer errors.
func NewExpAvg(stdWeight, stdPeriodMS float64) *ExpAvg {
	if stdWeight <= 0 || stdWeight > 1 || stdPeriodMS <= 0 {
		panic(fmt.Sprintf("profile: invalid ExpAvg parameters p=%v L=%v", stdWeight, stdPeriodMS))
	}
	return &ExpAvg{StdWeight: stdWeight, StdPeriod: stdPeriodMS}
}

// Seed initializes the average to v (used for initial task placement,
// §4.6, where a new task's profile starts from the hash-table value).
func (a *ExpAvg) Seed(v float64) {
	a.value = v
	a.primed = true
}

// Primed reports whether the average holds a value.
func (a *ExpAvg) Primed() bool { return a.primed }

// Value returns the current average (0 if never updated or seeded).
func (a *ExpAvg) Value() float64 { return a.value }

// WeightFor returns the effective sample weight for a period of
// periodMS milliseconds.
func (a *ExpAvg) WeightFor(periodMS float64) float64 {
	if periodMS <= 0 {
		return 0
	}
	if periodMS != a.lastPeriod {
		a.lastPeriod = periodMS
		a.lastW = a.weight(periodMS)
	}
	return a.lastW
}

// weight is WeightFor's computation, without the memo.
func (a *ExpAvg) weight(periodMS float64) float64 {
	return 1 - math.Pow(1-a.StdWeight, periodMS/a.StdPeriod)
}

// Update folds in a sample observed over periodMS milliseconds.
// Non-positive periods are ignored.
func (a *ExpAvg) Update(sample, periodMS float64) {
	if periodMS <= 0 {
		return
	}
	if !a.primed {
		a.Seed(sample)
		return
	}
	w := a.WeightFor(periodMS)
	a.value = w*sample + (1-w)*a.value
}

// UpdateWeighted folds in a sample using a precomputed weight — the
// value WeightFor would return for the period the sample covers.
// Callers settling many identically-parameterized averages over the
// same period share one weight computation this way.
func (a *ExpAvg) UpdateWeighted(sample, w float64) {
	if !a.primed {
		a.Seed(sample)
		return
	}
	a.value = w*sample + (1-w)*a.value
}

// TaskProfile is a task's energy profile: the expected power (W) the
// task will draw during its next timeslice, estimated as the
// exponential average of its past per-schedule power (§3.3). Working in
// Watts rather than Joules makes samples of different period
// commensurable.
type TaskProfile struct {
	avg ExpAvg
}

// Profile weight constants: the paper does not publish its p, but the
// reasoning in §3.3 wants short-term spikes suppressed while a
// permanent change shows up "after an appropriate time" — a handful of
// timeslices. p = 0.5 per standard timeslice reflects a changed profile
// within ~3 slices while halving a one-slice spike.
const (
	// StdTimesliceMS is the standard timeslice (Linux 2.6 default
	// priority → 100 ms).
	StdTimesliceMS = 100
	// ProfileStdWeight is the per-timeslice sample weight.
	ProfileStdWeight = 0.5
)

// NewTaskProfile returns an unprimed profile.
func NewTaskProfile() *TaskProfile {
	return &TaskProfile{avg: *NewExpAvg(ProfileStdWeight, StdTimesliceMS)}
}

// NewSeededTaskProfile returns a profile seeded with an initial power
// estimate, as done for tasks whose binary is in the placement table.
func NewSeededTaskProfile(watts float64) *TaskProfile {
	p := NewTaskProfile()
	p.avg.Seed(watts)
	return p
}

// AddSample folds in an observation: the task consumed energyJ Joules
// over ranMS milliseconds of execution.
func (p *TaskProfile) AddSample(energyJ, ranMS float64) {
	if ranMS <= 0 {
		return
	}
	powerW := energyJ / (ranMS / 1000)
	p.avg.Update(powerW, ranMS)
}

// Watts returns the profiled power.
func (p *TaskProfile) Watts() float64 { return p.avg.Value() }

// Primed reports whether the profile has data.
func (p *TaskProfile) Primed() bool { return p.avg.Primed() }

// CPUPower tracks the per-CPU calculation parameters of §4.3:
//
//   - thermal power: an exponential average of the CPU's recent power,
//     calibrated to the thermal model's time constant so its course
//     follows temperature while keeping the dimension of a power;
//   - maximum power: the highest sustained power that does not overheat
//     the CPU;
//   - the thermal power ratio (thermal power / maximum power).
//
// Runqueue power — the other §4.3 metric — is an aggregate over the
// tasks in a runqueue and lives with the scheduler; see
// sched.Runqueue.
type CPUPower struct {
	// MaxPower is the CPU's maximum sustainable power in W (§4.3).
	MaxPower float64
	thermal  ExpAvg
	// retain is RetentionPerMS, computed once: the planner reads it for
	// every prediction, and taking it through WeightFor(1) would evict
	// the memo the execution sweep's weights hit.
	retain float64
}

// NewCPUPower creates the tracker. updateMS is the interval between
// thermal-power updates; thermalWeight is the per-update weight
// calibrated from the RC time constant (thermal.ThermalPowerWeight).
// initialW seeds the metric (idle power for a machine at equilibrium).
func NewCPUPower(maxPower, thermalWeight, updateMS, initialW float64) *CPUPower {
	c := &CPUPower{MaxPower: maxPower, thermal: *NewExpAvg(thermalWeight, updateMS)}
	c.thermal.Seed(initialW)
	c.retain = 1 - c.thermal.weight(1)
	return c
}

// AddEnergy folds energyJ Joules consumed over periodMS milliseconds
// into the thermal power.
func (c *CPUPower) AddEnergy(energyJ, periodMS float64) {
	if periodMS <= 0 {
		return
	}
	c.thermal.Update(energyJ/(periodMS/1000), periodMS)
}

// ThermalPower returns the thermal-power metric in W.
func (c *CPUPower) ThermalPower() float64 { return c.thermal.Value() }

// ThermalWeightFor returns the thermal average's sample weight for a
// period, for use with AddEnergyWeighted.
func (c *CPUPower) ThermalWeightFor(periodMS float64) float64 {
	return c.thermal.WeightFor(periodMS)
}

// AddEnergyWeighted is AddEnergy with a caller-supplied weight: when
// every per-CPU tracker of a machine shares the same parameters, a
// settle sweeping many CPUs over one gap amortizes the math.Pow.
func (c *CPUPower) AddEnergyWeighted(energyJ, periodMS, w float64) {
	if periodMS <= 0 {
		return
	}
	c.thermal.UpdateWeighted(energyJ/(periodMS/1000), w)
}

// RetentionPerMS returns the fraction of the thermal-power metric that
// survives one millisecond of updates: feeding a constant sample x for n
// milliseconds yields exactly
//
//	v_n = x + (v_0 − x)·RetentionPerMS()^n.
//
// The quantum planner uses this geometric form to predict, in closed
// form, the millisecond at which the metric will cross a throttle
// threshold. It equals 1 − ThermalWeightFor(1) bit for bit, computed
// at construction, and leaves the weight memo alone.
func (c *CPUPower) RetentionPerMS() float64 { return c.retain }

// CrossSteps returns the smallest n ≥ 1 such that the geometric
// relaxation v_n = target + (v0 − target)·retain^n crosses threshold:
// v_n ≥ threshold when rising, v_n < threshold when falling. It returns
// ok = false when the asymptote never reaches the threshold (the value
// relaxes away from it, or exactly onto it). retain must lie in (0, 1).
//
// This is the planner's event-horizon solver for throttle decisions:
// while a CPU's power input is constant, its thermal-power metric
// follows this geometric curve exactly, so the first millisecond at
// which a throttle would engage (rising through its limit) or disengage
// (falling below limit − hysteresis) is computable without stepping.
func CrossSteps(v0, target, retain, threshold float64, rising bool) (int64, bool) {
	if retain <= 0 || retain >= 1 {
		return 0, false
	}
	if rising {
		if v0 >= threshold {
			return 1, true
		}
		if target <= threshold {
			return 0, false // asymptote below (or at) the threshold
		}
		// retain^n ≤ (target−threshold)/(target−v0), both sides in (0,1).
		ratio := (target - threshold) / (target - v0)
		n := int64(math.Ceil(math.Log(ratio) / math.Log(retain)))
		if n < 1 {
			n = 1
		}
		return n, true
	}
	if v0 < threshold {
		return 1, true
	}
	if target >= threshold {
		return 0, false // asymptote above (or at) the threshold
	}
	// retain^n < (threshold−target)/(v0−target).
	ratio := (threshold - target) / (v0 - target)
	n := int64(math.Floor(math.Log(ratio)/math.Log(retain))) + 1
	if n < 1 {
		n = 1
	}
	return n, true
}

// ThermalRatio returns thermal power / maximum power (§4.3). A ratio of
// 1 means the CPU has reached its temperature limit.
func (c *CPUPower) ThermalRatio() float64 {
	if c.MaxPower <= 0 {
		return 0
	}
	return c.thermal.Value() / c.MaxPower
}

// PlacementTable is the §4.6 hash table: the energy a binary's tasks
// consume during their first timeslice, keyed by the inode number of
// the binary. It seeds the energy profile of newly started tasks so the
// scheduler can place them sensibly before their first measurement.
type PlacementTable struct {
	// DefaultWatts is used for binaries started for the very first
	// time.
	DefaultWatts float64
	table        map[uint64]float64
}

// NewPlacementTable creates an empty table with the given default.
func NewPlacementTable(defaultWatts float64) *PlacementTable {
	return &PlacementTable{DefaultWatts: defaultWatts, table: make(map[uint64]float64)}
}

// Lookup returns the initial power estimate for a binary.
func (t *PlacementTable) Lookup(binary uint64) float64 {
	if w, ok := t.table[binary]; ok {
		return w
	}
	return t.DefaultWatts
}

// Record stores the power a task consumed during its first timeslice.
// Later starts of the same binary overwrite the entry, keeping the
// estimate fresh.
func (t *PlacementTable) Record(binary uint64, watts float64) {
	t.table[binary] = watts
}

// Len returns the number of known binaries.
func (t *PlacementTable) Len() int { return len(t.table) }
