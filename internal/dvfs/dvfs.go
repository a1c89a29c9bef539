// Package dvfs models dynamic voltage and frequency scaling: discrete
// P-states (frequency/voltage pairs), the scaling laws that convert a
// P-state into execution-speed and power factors, and the governor
// policies that pick P-states online.
//
// The paper (Merkel & Bellosa, EuroSys'06) enforces thermal limits by
// duty-cycle hlt throttling (§6.2) and names frequency scaling as the
// alternative enforcement knob it could not evaluate. This package is
// that knob: a logical CPU running in P-state (f, V) executes workload
// progress at f/f_max (work is clock-bound) while its dynamic power —
// everything the event counters see, including the static execution
// power folded into the cycles weight — scales with f·V². Because
// event counts are themselves proportional to executed work (∝ f), the
// simulator realizes the f·V² law as: counts shrink by f/f_max, and
// each count's energy shrinks by (V/V_max)². Halt power is unaffected:
// a CPU in hlt draws its sleep power regardless of its P-state.
//
// P-state changes are not free: a transition decided by a governor
// takes TransitionLatencyMS to take effect (PLL relock, voltage ramp).
// The simulation engines treat pending transitions and governor
// evaluations that could change a P-state as event horizons, so both
// engines (lockstep and async) make bit-identical DVFS decisions — see
// machine.TestEngineEquivalence.
package dvfs

import (
	"fmt"
	"strings"
)

// PState is one operating point of the frequency/voltage ladder.
type PState struct {
	// FreqMHz is the core clock in MHz.
	FreqMHz float64
	// VoltageV is the supply voltage at this frequency.
	VoltageV float64
}

// Ladder is the ordered set of P-states a CPU can run at, sorted
// ascending by frequency; the last entry is the nominal (maximum)
// operating point.
type Ladder []PState

// DefaultLadder returns a five-state ladder for the simulated 2.2 GHz
// machine, with the roughly linear frequency/voltage relation of
// contemporary Enhanced-SpeedStep parts.
func DefaultLadder() Ladder {
	return Ladder{
		{FreqMHz: 1100, VoltageV: 1.00},
		{FreqMHz: 1400, VoltageV: 1.08},
		{FreqMHz: 1700, VoltageV: 1.16},
		{FreqMHz: 2000, VoltageV: 1.24},
		{FreqMHz: 2200, VoltageV: 1.30},
	}
}

// Validate reports structural errors: fewer than two states,
// non-positive values, or a ladder not strictly ascending in both
// frequency and voltage.
func (l Ladder) Validate() error {
	if len(l) < 2 {
		return fmt.Errorf("dvfs: ladder needs at least 2 P-states, got %d", len(l))
	}
	for i, p := range l {
		if p.FreqMHz <= 0 || p.VoltageV <= 0 {
			return fmt.Errorf("dvfs: P-state %d has non-positive freq/voltage: %+v", i, p)
		}
		if i > 0 && (p.FreqMHz <= l[i-1].FreqMHz || p.VoltageV <= l[i-1].VoltageV) {
			return fmt.Errorf("dvfs: ladder not ascending at state %d", i)
		}
	}
	return nil
}

// Max returns the index of the nominal (highest-frequency) P-state.
func (l Ladder) Max() int { return len(l) - 1 }

// SpeedScale returns the execution-speed factor of P-state i relative
// to the nominal state: f_i / f_max. Workload progress is clock-bound,
// so this composes multiplicatively with the SMT-contention and
// cache-warmup speed factors.
func (l Ladder) SpeedScale(i int) float64 {
	return l[i].FreqMHz / l[l.Max()].FreqMHz
}

// EnergyScale returns the per-event energy factor of P-state i:
// (V_i / V_max)². Combined with event counts shrinking by SpeedScale
// (counts ∝ executed work ∝ f), dynamic power scales by the canonical
// f·V² law:
//
//	P_i / P_max = (f_i·V_i²) / (f_max·V_max²)
func (l Ladder) EnergyScale(i int) float64 {
	r := l[i].VoltageV / l[l.Max()].VoltageV
	return r * r
}

// PowerScale returns the dynamic-power factor of P-state i relative to
// nominal: SpeedScale·EnergyScale = (f_i·V_i²)/(f_max·V_max²).
func (l Ladder) PowerScale(i int) float64 {
	return l.SpeedScale(i) * l.EnergyScale(i)
}

// Label returns the display label of P-state i ("1400MHz").
func (l Ladder) Label(i int) string {
	return fmt.Sprintf("%.0fMHz", l[i].FreqMHz)
}

// Defaults of the Config knobs.
const (
	// DefaultEvalPeriodMS is the per-CPU governor evaluation period —
	// the cpufreq sampling rate.
	DefaultEvalPeriodMS = 20
	// DefaultTransitionLatencyMS is the delay between a governor's
	// decision and the new P-state taking effect.
	DefaultTransitionLatencyMS = 2
	// DefaultUpThreshold and DefaultDownThreshold are the ondemand
	// governor's utilization bounds: above Up jump to the nominal
	// state, below Down step one state down.
	DefaultUpThreshold   = 0.80
	DefaultDownThreshold = 0.30
	// DefaultDownRatio and DefaultUpRatio tune the thermal governor.
	// DownRatio is the thermal-power / max-power ratio at which it
	// intervenes (just ahead of the hlt throttle, which engages at
	// ratio 1); UpRatio is the fraction of the budget the
	// *instantaneous* power predicted for a target P-state must fit
	// within — both when dropping to a sustainable state and when
	// stepping back up.
	DefaultDownRatio = 0.95
	DefaultUpRatio   = 0.95
)

// Config selects the ladder and governor of a DVFS-enabled machine.
// Zero fields select the package defaults.
type Config struct {
	// Ladder is the P-state ladder; nil selects DefaultLadder.
	Ladder Ladder
	// Governor names the policy: "performance", "ondemand", or
	// "thermal". Empty selects "performance" (nominal frequency
	// always — behaviour identical to a machine without DVFS).
	Governor string
	// EvalPeriodMS is the per-CPU governor evaluation period;
	// 0 selects DefaultEvalPeriodMS.
	EvalPeriodMS int
	// TransitionLatencyMS is the decision-to-effect delay of a P-state
	// switch; 0 selects DefaultTransitionLatencyMS, a negative value
	// selects instant (zero-latency) transitions.
	TransitionLatencyMS int

	// UpThreshold / DownThreshold tune the ondemand governor;
	// 0 selects the defaults.
	UpThreshold   float64
	DownThreshold float64
	// DownRatio / UpRatio tune the thermal governor; 0 selects the
	// defaults.
	DownRatio float64
	UpRatio   float64
}

// Resolved returns the config with every zero field replaced by its
// default, or an error for invalid settings.
func (c Config) Resolved() (Config, error) {
	if c.Ladder == nil {
		c.Ladder = DefaultLadder()
	}
	if err := c.Ladder.Validate(); err != nil {
		return c, err
	}
	if c.Governor == "" {
		c.Governor = "performance"
	}
	if c.EvalPeriodMS == 0 {
		c.EvalPeriodMS = DefaultEvalPeriodMS
	}
	if c.EvalPeriodMS < 1 {
		return c, fmt.Errorf("dvfs: EvalPeriodMS %d out of range", c.EvalPeriodMS)
	}
	if c.TransitionLatencyMS == 0 {
		c.TransitionLatencyMS = DefaultTransitionLatencyMS
	} else if c.TransitionLatencyMS < 0 {
		// Negative selects genuinely instant transitions — 0 could not
		// express them, since it selects the default.
		c.TransitionLatencyMS = 0
	}
	if c.UpThreshold == 0 {
		c.UpThreshold = DefaultUpThreshold
	}
	if c.DownThreshold == 0 {
		c.DownThreshold = DefaultDownThreshold
	}
	if c.DownRatio == 0 {
		c.DownRatio = DefaultDownRatio
	}
	if c.UpRatio == 0 {
		c.UpRatio = DefaultUpRatio
	}
	// Only the selected governor's knobs are validated: a leftover
	// tuning value for a governor that is not running must not fail
	// construction of a machine whose effective behaviour is valid.
	if c.Governor == "ondemand" &&
		(c.UpThreshold <= c.DownThreshold || c.UpThreshold > 1 || c.DownThreshold < 0) {
		return c, fmt.Errorf("dvfs: ondemand thresholds %v/%v invalid", c.UpThreshold, c.DownThreshold)
	}
	if c.Governor == "thermal" &&
		(c.UpRatio <= 0 || c.UpRatio > c.DownRatio || c.DownRatio > 1.2) {
		return c, fmt.Errorf("dvfs: thermal ratios %v/%v invalid", c.DownRatio, c.UpRatio)
	}
	if _, err := NewGovernor(c); err != nil {
		return c, err
	}
	return c, nil
}

// Inputs is what a governor sees when it evaluates one logical CPU.
// Governors are pure functions of their inputs — no hidden state — so
// the three simulation engines, which evaluate at identical instants
// with identical inputs, reach identical decisions.
type Inputs struct {
	// Util is the fraction of wall time since the last evaluation the
	// CPU had a task occupying it (sched's per-CPU utilization).
	Util float64
	// ThermalPowerW is the CPU's §4.3 thermal-power metric — the slow,
	// temperature-like signal (time constant ≈ the package RC).
	ThermalPowerW float64
	// InstPowerW is the CPU's instantaneous estimated power at the
	// current P-state — the fast signal: the running task's event
	// rates through the estimator weights, frequency- and
	// voltage-scaled. 0 while the CPU is halted or idle. Rescaling it
	// by a ladder PowerScale ratio predicts the power at another
	// P-state without the metric's lag.
	InstPowerW float64
	// MaxPowerW is the CPU's sustainable power budget (0 = none
	// installed).
	MaxPowerW float64
	// Cur is the current P-state index.
	Cur int
	// Ladder is the machine's P-state ladder.
	Ladder Ladder
}

// Governor picks P-states. Evaluate returns the desired P-state index
// for a CPU; the machine clamps it to the ladder and applies it after
// the transition latency.
type Governor interface {
	// Name returns the governor's flag name.
	Name() string
	// Evaluate returns the desired P-state index given the inputs.
	Evaluate(in Inputs) int
}

// GovernorNames lists the accepted governor names.
func GovernorNames() []string { return []string{"performance", "ondemand", "thermal"} }

// ParseGovernor validates a governor name — the values accepted by the
// CLI tools' -governor flags.
func ParseGovernor(s string) (string, error) {
	for _, n := range GovernorNames() {
		if s == n {
			return s, nil
		}
	}
	return "", fmt.Errorf("unknown governor %q (want %s)", s, strings.Join(GovernorNames(), ", "))
}

// NewGovernor builds the governor named by the (resolved) config.
func NewGovernor(c Config) (Governor, error) {
	switch c.Governor {
	case "performance", "":
		return Performance{}, nil
	case "ondemand":
		return Ondemand{Up: c.UpThreshold, Down: c.DownThreshold}, nil
	case "thermal":
		return Thermal{DownRatio: c.DownRatio, UpRatio: c.UpRatio}, nil
	}
	_, err := ParseGovernor(c.Governor)
	return nil, err
}

// Performance always runs at the nominal P-state — the reference
// policy, equivalent to a machine without DVFS.
type Performance struct{}

// Name implements Governor.
func (Performance) Name() string { return "performance" }

// Evaluate implements Governor.
func (Performance) Evaluate(in Inputs) int { return in.Ladder.Max() }

// Ondemand is the utilization-driven policy of Linux's ondemand
// governor: saturated CPUs jump straight to the nominal frequency
// (latency matters more than the energy of a short burst), lightly
// loaded CPUs step down one state per evaluation.
type Ondemand struct {
	// Up is the utilization at or above which the CPU jumps to the
	// nominal P-state.
	Up float64
	// Down is the utilization at or below which the CPU steps one
	// P-state down.
	Down float64
}

// Name implements Governor.
func (g Ondemand) Name() string { return "ondemand" }

// Evaluate implements Governor.
func (g Ondemand) Evaluate(in Inputs) int {
	switch {
	case in.Util >= g.Up:
		return in.Ladder.Max()
	case in.Util <= g.Down && in.Cur > 0:
		return in.Cur - 1
	}
	return in.Cur
}

// Thermal is the thermal-aware governor: it enforces the temperature
// limit by downclocking instead of letting the hlt throttle engage.
// It combines the two signals by their physics: the *thermal-power
// metric* (slow, temperature-like) decides when to intervene — at
// DownRatio of the budget, just ahead of the throttle's engagement at
// ratio 1 — while the *instantaneous power* (fast, lag-free) decides
// where to go: the highest P-state whose predicted power (event rates
// are frequency-independent, so power rescales by the ladder's
// PowerScale ratio) fits within UpRatio of the budget. Deciding the
// target on the laggy metric instead would overshoot: the metric keeps
// rising for seconds after a downclock, triggering extra steps the
// governor could never climb back from.
type Thermal struct {
	// DownRatio is the thermal-power ratio at or above which the
	// governor intervenes.
	DownRatio float64
	// UpRatio is the budget fraction a target state's predicted
	// instantaneous power must fit within.
	UpRatio float64
}

// Name implements Governor.
func (g Thermal) Name() string { return "thermal" }

// DownThresholdW is the thermal-power level at or above which Evaluate
// takes the overheating branch for a CPU with budget maxPowerW. It is
// the only way Evaluate's decision depends on ThermalPowerW.
func (g Thermal) DownThresholdW(maxPowerW float64) float64 { return g.DownRatio * maxPowerW }

// Evaluate implements Governor.
func (g Thermal) Evaluate(in Inputs) int {
	if in.MaxPowerW <= 0 {
		return in.Ladder.Max() // no budget: nothing to enforce
	}
	if in.InstPowerW <= 0 {
		// Halted (hlt backstop engaged): no instantaneous-power signal,
		// so every prediction would be vacuously 0 W — the overheat
		// branch could never downclock and the step-up branch would
		// walk a duty-cycling CPU back to nominal on no evidence. Hold
		// the current state until the CPU runs again.
		return in.Cur
	}
	// fits reports whether the instantaneous power predicted for
	// P-state i stays within the headroom bound.
	fits := func(i int) bool {
		predicted := in.InstPowerW * in.Ladder.PowerScale(i) / in.Ladder.PowerScale(in.Cur)
		return predicted <= g.UpRatio*in.MaxPowerW
	}
	if in.ThermalPowerW >= g.DownThresholdW(in.MaxPowerW) {
		// Overheating: drop straight to the highest sustainable state
		// (the lowest if none fits).
		for i := in.Cur; i > 0; i-- {
			if fits(i) {
				return i
			}
		}
		return 0
	}
	if in.Cur < in.Ladder.Max() && fits(in.Cur+1) {
		return in.Cur + 1
	}
	return in.Cur
}
