// Package thermal implements the paper's thermal model (§4.2, Fig. 2):
// one thermal resistor (heat sink to ambient) and one thermal capacitor
// (chip + heat sink mass) per physical processor. The network yields the
// exponential temperature response the paper calibrates its *thermal
// power* metric against.
//
// The package also provides:
//
//   - Diode: the on-chip thermal diode — coarse resolution and a slow,
//     expensive read path (several milliseconds via the system
//     management bus, §3.1), which is exactly why the paper estimates
//     energy from event counters instead of reading temperature at
//     timeslice granularity.
//   - Throttle: the enforcement mechanism — when a CPU's thermal power
//     reaches its maximum power, the CPU executes hlt (drawing the
//     measured 13.6 W sleep power) until the metric falls below the
//     limit again (§6.2).
//   - Calibrate: the offline fitting procedure of §4.2 — run a maximum-
//     heat task on a cold processor, record diode readings over time,
//     and fit the exponential to recover the processor's R and C.
package thermal

import (
	"fmt"
	"math"
)

// Properties are the per-processor thermal characteristics. The paper's
// policies exist precisely because these differ between the processors
// of a real machine: "one processor may be located closer to some
// cooling component, such as a fan or an air inlet" (§4).
type Properties struct {
	// R is the thermal resistance of the heat sink in K/W: the steady-
	// state temperature rise above ambient per Watt dissipated.
	R float64
	// C is the thermal capacitance of chip + heat sink in J/K.
	C float64
	// AmbientC is the ambient air temperature in °C.
	AmbientC float64
}

// Validate reports an error for non-physical properties, and for a time
// constant so long that the 1 ms thermal-power weight rounds to zero
// (the metric would never move).
func (p Properties) Validate() error {
	if p.R <= 0 || p.C <= 0 {
		return fmt.Errorf("thermal: non-positive R or C: %+v", p)
	}
	if w := ThermalPowerWeight(p, 1); !(w > 0) {
		return fmt.Errorf("thermal: time constant %g s too long for a 1 ms metric update: %+v", p.TimeConstant(), p)
	}
	return nil
}

// TimeConstant returns the RC time constant in seconds.
func (p Properties) TimeConstant() float64 { return p.R * p.C }

// SteadyTemp returns the equilibrium temperature (°C) while dissipating
// power Watts.
func (p Properties) SteadyTemp(power float64) float64 {
	return p.AmbientC + p.R*power
}

// PowerForTemp returns the sustained power (W) whose equilibrium
// temperature is t °C — the paper's *maximum power* for a temperature
// limit (§4.3): "a processor whose thermal power is equal to its
// maximum power has reached its maximum temperature".
func (p Properties) PowerForTemp(t float64) float64 {
	return (t - p.AmbientC) / p.R
}

// Node integrates the RC network of one physical processor.
type Node struct {
	Props Properties
	// TempC is the current junction temperature in °C.
	TempC float64
	// lastDT/lastDecay cache the step exponential: the engines step a
	// node with long runs of identical quantum lengths, and the exp
	// dominates the update cost on large topologies.
	lastDT    float64
	lastDecay float64
}

// NewNode returns a node at thermal equilibrium with ambient air.
func NewNode(p Properties) *Node {
	return &Node{Props: p, TempC: p.AmbientC}
}

// Step advances the model by dtMS milliseconds with the processor
// dissipating power Watts:
//
//	C·dT/dt = P − (T − T_ambient)/R
//
// integrated exactly over the step (the input is constant within a
// simulator tick, so the closed-form exponential update is both exact
// and unconditionally stable):
//
//	T(t+dt) = T_steady + (T(t) − T_steady)·e^(−dt/RC)
//
// Because the update is closed-form, one Step over dt milliseconds
// equals dt consecutive 1 ms steps at the same power (up to
// floating-point rounding in the exponential): the async engine's
// planned quanta integrate constant-power intervals exactly, not
// approximately.
func (n *Node) Step(power, dtMS float64) {
	n.StepDecay(power, n.DecayFor(dtMS))
}

// StepDecay is Step with the step's retention e^(−dt/RC) supplied by
// the caller (Properties.Decay of the step length), so nodes that share
// a time constant can share one exponential per step length.
func (n *Node) StepDecay(power, decay float64) {
	steady := n.Props.SteadyTemp(power)
	n.TempC = steady + (n.TempC-steady)*decay
}

// DecayFor returns the node's retention e^(−dt/RC) over dtMS
// milliseconds, cached for repeated dt.
func (n *Node) DecayFor(dtMS float64) float64 {
	if dtMS != n.lastDT {
		n.lastDT = dtMS
		n.lastDecay = n.Props.Decay(dtMS)
	}
	return n.lastDecay
}

// Decay returns the temperature retention e^(−dt/RC) of a dtMS
// millisecond step — the factor Step applies.
func (p Properties) Decay(dtMS float64) float64 {
	return math.Exp(-dtMS / 1000 / p.TimeConstant())
}

// DecayPerMS returns the node's per-millisecond temperature retention
// factor e^(−1ms/RC) — the geometric ratio of its discrete 1 ms
// relaxation sequence, used by the async engine's closed forms.
func (p Properties) DecayPerMS() float64 {
	return math.Exp(-0.001 / p.TimeConstant())
}

// Diode models the on-chip thermal diode: quantized output and a slow
// read (the paper cites several milliseconds via the system management
// bus [8]).
type Diode struct {
	// ResolutionC is the quantization step in °C (contemporary diodes
	// report whole degrees).
	ResolutionC float64
	// ReadCostMS is the time one read occupies, during which the
	// reading CPU does no useful work.
	ReadCostMS float64
}

// DefaultDiode matches the paper's description: 1 °C resolution,
// 4 ms read cost.
func DefaultDiode() Diode { return Diode{ResolutionC: 1, ReadCostMS: 4} }

// Read returns the quantized temperature of the node.
func (d Diode) Read(n *Node) float64 { return d.Quantize(n.TempC) }

// Quantize applies the diode's output quantization to a temperature —
// for callers that observe a temperature through another surface (e.g.
// a whole-machine simulation) rather than a bare thermal node. A
// non-positive resolution means an exact diode.
func (d Diode) Quantize(tempC float64) float64 {
	if d.ResolutionC <= 0 {
		return tempC
	}
	return math.Floor(tempC/d.ResolutionC) * d.ResolutionC
}

// ThermalPowerWeight converts the RC time constant into the per-update
// weight p of the thermal-power exponential average (Eq. 2), so that the
// metric's step response matches the temperature's exponential response
// when updated every updateMS milliseconds (§4.3: "we calibrate it to
// the exponential function of our thermal model").
func ThermalPowerWeight(props Properties, updateMS float64) float64 {
	return 1 - math.Exp(-updateMS/1000/props.TimeConstant())
}

// Throttle is the per-logical-CPU duty-cycle throttling mechanism: while
// engaged, the CPU executes hlt instead of user code. The decision input
// is the thermal-power metric, exactly as in §6.2 ("Whenever a CPU's
// thermal power rose above the value corresponding to a temperature of
// 38°C, we throttled the CPU").
type Throttle struct {
	// LimitW is the thermal-power ceiling (the CPU's maximum power).
	LimitW float64
	// engaged is true while the CPU is being halted.
	engaged bool
	// HaltedTicks counts ticks spent halted, for Table 3.
	HaltedTicks int64
	// TotalTicks counts all ticks observed.
	TotalTicks int64
}

// Hysteresis keeps the throttle from chattering: it disengages only
// when thermal power has fallen this many Watts below the limit.
const Hysteresis = 0.25

// Decide updates the throttle state for one tick given the CPU's current
// thermal power and returns true if the CPU must halt this tick.
func (t *Throttle) Decide(thermalPowerW float64) bool {
	h := t.Engage(thermalPowerW)
	t.Account(1)
	return h
}

// Engage updates the engaged state from the current metric value and
// returns whether the CPU must halt, without advancing the tick
// accounting. The async engine makes one Engage decision per quantum
// (the quantum planner guarantees the decision cannot flip inside the
// quantum) and accounts the quantum's ticks separately with Account.
func (t *Throttle) Engage(thermalPowerW float64) bool {
	if t.LimitW <= 0 { // throttling disabled
		return false
	}
	if t.engaged {
		if thermalPowerW < t.LimitW-Hysteresis {
			t.engaged = false
		}
	} else if thermalPowerW >= t.LimitW {
		t.engaged = true
	}
	return t.engaged
}

// Engaged reports whether the throttle is currently engaged.
func (t *Throttle) Engaged() bool { return t.engaged && t.LimitW > 0 }

// SetEngaged overwrites the hysteresis latch, for checkpoint restore.
func (t *Throttle) SetEngaged(v bool) { t.engaged = v }

// Account advances the tick accounting by dtMS milliseconds spent in the
// current engaged state.
func (t *Throttle) Account(dtMS int64) {
	t.TotalTicks += dtMS
	if t.engaged && t.LimitW > 0 {
		t.HaltedTicks += dtMS
	}
}

// ThrottledFrac returns the fraction of observed ticks spent halted —
// the "CPU throttling percentage" of Table 3.
func (t *Throttle) ThrottledFrac() float64 {
	if t.TotalTicks == 0 {
		return 0
	}
	return float64(t.HaltedTicks) / float64(t.TotalTicks)
}

// Reset clears the accounting but keeps the limit.
func (t *Throttle) Reset() {
	t.engaged = false
	t.HaltedTicks = 0
	t.TotalTicks = 0
}

// CalibrationResult is the outcome of the offline fitting procedure.
type CalibrationResult struct {
	// R and TimeConstant are the recovered heat-sink resistance (K/W)
	// and RC constant (s).
	R            float64
	TimeConstant float64
}

// Calibrate performs the paper's offline calibration (§4.2): given diode
// samples of a processor heating from ambient under constant known
// power, fit the exponential T(t) = T_amb + R·P·(1 − e^(−t/RC)).
//
// samples[i] is the diode reading at time sampleStepS·i seconds; the
// first sample must be at (or near) ambient. power is the heat source's
// dissipation, ambient the air temperature.
func Calibrate(samples []float64, sampleStepS, power, ambient float64) (CalibrationResult, error) {
	if len(samples) < 3 {
		return CalibrationResult{}, fmt.Errorf("thermal: need at least 3 samples, got %d", len(samples))
	}
	if power <= 0 {
		return CalibrationResult{}, fmt.Errorf("thermal: non-positive calibration power")
	}
	// Quick sanity check: the trace must actually rise.
	tail := samples[len(samples)-1]
	if n := len(samples); n >= 5 {
		tail = (samples[n-1] + samples[n-2] + samples[n-3]) / 3
	}
	if tail-ambient <= 0 {
		return CalibrationResult{}, fmt.Errorf("thermal: no temperature rise in trace")
	}

	// Nonlinear least squares on ΔT(t) = A·(1 − e^(−t/τ)): for a
	// candidate τ the optimal amplitude A has the closed form
	// A = Σ mᵢ·ΔTᵢ / Σ mᵢ² with mᵢ = 1 − e^(−tᵢ/τ). Scan τ coarsely,
	// then refine around the best candidate. This is far more robust
	// against diode quantization than a log-linearized fit, whose
	// errors blow up near the asymptote.
	deltaT := make([]float64, len(samples))
	for i, s := range samples {
		deltaT[i] = s - ambient
	}
	span := float64(len(samples)-1) * sampleStepS
	sse := func(tau float64) (float64, float64) {
		var num, den float64
		for i, dt := range deltaT {
			m := 1 - math.Exp(-float64(i)*sampleStepS/tau)
			num += m * dt
			den += m * m
		}
		if den == 0 {
			return math.Inf(1), 0
		}
		amp := num / den
		var e float64
		for i, dt := range deltaT {
			m := amp * (1 - math.Exp(-float64(i)*sampleStepS/tau))
			d := dt - m
			e += d * d
		}
		return e, amp
	}
	bestTau, bestAmp, bestErr := 0.0, 0.0, math.Inf(1)
	lo, hi := sampleStepS/4, span*4
	for pass := 0; pass < 3; pass++ {
		const steps = 60
		ratio := math.Pow(hi/lo, 1/float64(steps))
		for tau := lo; tau <= hi*1.0001; tau *= ratio {
			if e, amp := sse(tau); e < bestErr {
				bestTau, bestAmp, bestErr = tau, amp, e
			}
		}
		lo, hi = bestTau/ratio, bestTau*ratio // refine around the winner
	}
	if bestAmp <= 0 || math.IsInf(bestErr, 1) {
		return CalibrationResult{}, fmt.Errorf("thermal: exponential fit failed")
	}
	return CalibrationResult{R: bestAmp / power, TimeConstant: bestTau}, nil
}

// StepOver advances the node against a moving reference temperature —
// used for functional-unit hotspots riding on their core's temperature
// (§7 multiple-temperature extension): the unit's steady temperature is
// the reference plus R·P, approached with the node's own (small) time
// constant.
func (n *Node) StepOver(power, dtMS, referenceC float64) {
	steady := referenceC + n.Props.R*power
	n.TempC = steady + (n.TempC-steady)*n.DecayFor(dtMS)
}

// StepOverBatched advances the node by dtMS milliseconds against a
// reference temperature that itself relaxes geometrically — the closed
// form of dtMS consecutive 1 ms StepOver calls where the k-th call sees
// the reference at
//
//	ref_k = refSteadyC + (refStartC − refSteadyC)·refDecayPerMS^k.
//
// This is exactly the one-quantum equivalent of the lockstep engine's
// "step the core node, then step its unit hotspots against the new core
// temperature" sequence: summing the geometric series
//
//	T(n) = a^n·T(0) + (1−a^n)(S_ref + R·P)
//	     + (1−a)(refStart − S_ref)·d·(d^n − a^n)/(d − a)
//
// with a the hotspot's own per-ms retention and d = refDecayPerMS. The
// degenerate case d == a uses the limit n·a^n.
func (n *Node) StepOverBatched(power float64, dtMS int64, refStartC, refSteadyC, refDecayPerMS float64) {
	a1 := n.Props.DecayPerMS()
	fn := float64(dtMS)
	an := math.Pow(a1, fn)
	dn := math.Pow(refDecayPerMS, fn)
	target := refSteadyC + n.Props.R*power
	var refTerm float64
	if diff := refDecayPerMS - a1; math.Abs(diff) > 1e-12 {
		refTerm = refDecayPerMS * (dn - an) / diff
	} else {
		refTerm = fn * an
	}
	n.TempC = an*n.TempC + (1-an)*target + (1-a1)*(refStartC-refSteadyC)*refTerm
}
