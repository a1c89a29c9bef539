// Package faults is the deterministic fault-injection subsystem: it
// perturbs the inputs the paper's design trusts — the calibrated
// estimator weights of Eq. 1 and the thermal-diode sensor — and drives
// the graceful-degradation loop that recovers from them.
//
// The paper (§3.2) calibrates E = Σ aᵢ·cᵢ once and every downstream
// decision — energy balancing, hot-task migration, throttling —
// consumes the estimate unquestioned. This package models the ways
// that trust breaks in practice:
//
//   - estimator faults: per-counter weight mis-calibration (scale and
//     offset applied once at boot) and slow weight drift over
//     simulated time (aging, temperature dependence of the power
//     model, workloads whose counter mix aliases differently than the
//     calibration set);
//   - sensor faults: the thermal diode read used to cross-check the
//     estimate can be quantized, noisy, stuck, delayed, or dropped;
//   - graceful degradation: an online recalibrator re-fits the weights
//     from the diode residual (sensed power vs. modeled power) each
//     residual window, and a divergence detector falls back to
//     conservatively scaled hlt-throttle limits while residuals exceed
//     a bound.
//
// Everything is seeded and deterministic: the same Spec and seed
// produce the same fault sequence under every simulation engine, so
// the differential oracle (internal/fuzz) cross-checks the fault paths
// byte-for-byte across lockstep and async. The formulation
// is closed-form-safe by construction: faults perturb only the event
// weights, never the estimator's halt power, so the async engine's
// constant-idle-power settles stay exact; sensor faults act only at
// residual-window instants, which the quantum planner aligns quanta to
// exactly like monitor samples.
package faults

import (
	"fmt"
	"math"

	"energysched/internal/counters"
	"energysched/internal/energy"
	"energysched/internal/rng"
	"energysched/internal/thermal"
)

// Spec is a JSON-serializable fault schedule — the corpus format of
// the differential fuzzer and the configuration surface of
// machine.Config.Faults / energysched.Options.Faults. The zero value
// injects nothing.
//
// Per-counter vectors (WeightScale, WeightOffset, DriftFactor) may be
// empty (identity), length 1 (broadcast to every event class), or one
// entry per counter event class.
type Spec struct {
	// WeightScale multiplies each estimator weight once at machine
	// construction — static mis-calibration.
	WeightScale []float64 `json:"weight_scale,omitempty"`
	// WeightOffset adds to each estimator weight once at machine
	// construction, in Joules per event (weights are clamped at 0).
	WeightOffset []float64 `json:"weight_offset,omitempty"`

	// DriftPeriodMS applies DriftFactor to the estimator weights every
	// period of simulated time — slow model drift. 0 disables drift.
	DriftPeriodMS int64 `json:"drift_period_ms,omitempty"`
	// DriftFactor is the per-application weight multiplier.
	DriftFactor []float64 `json:"drift_factor,omitempty"`
	// DriftSteps bounds the number of drift applications; 0 means
	// unlimited.
	DriftSteps int `json:"drift_steps,omitempty"`

	// RecalPeriodMS is the residual-window length: every period the
	// machine senses per-package temperatures through the (faulty)
	// diode, converts them to implied power, and compares against the
	// power modeled from the window's counter deltas. 0 disables the
	// whole sensing/recalibration/fallback loop.
	RecalPeriodMS int64 `json:"recal_period_ms,omitempty"`
	// RecalRate is the NLMS step size of the online recalibrator; 0
	// observes residuals without adapting the weights.
	RecalRate float64 `json:"recal_rate,omitempty"`
	// RecalWarmup skips this many initial residual windows before
	// adapting (the thermal transient from a cold start).
	RecalWarmup int `json:"recal_warmup,omitempty"`

	// DiodeResolutionC is the sensor quantization step in °C. 0 selects
	// the paper's 1 °C diode; negative means an exact sensor.
	DiodeResolutionC float64 `json:"diode_resolution_c,omitempty"`
	// DiodeNoiseC is the 1-sigma Gaussian read noise in °C, applied
	// before quantization.
	DiodeNoiseC float64 `json:"diode_noise_c,omitempty"`
	// DiodeStuckAfterMS freezes every diode at its last reading from
	// this simulated time on. 0 means never.
	DiodeStuckAfterMS int64 `json:"diode_stuck_after_ms,omitempty"`
	// SampleDropP is the probability a residual window's sensor sample
	// is lost (no residual, no adaptation, no fallback update).
	SampleDropP float64 `json:"sample_drop_p,omitempty"`
	// SampleDelay delays the sensor path by this many windows: the
	// residual compares the model against a reading this old.
	SampleDelay int `json:"sample_delay,omitempty"`

	// FallbackResidualW engages the conservative fallback when
	// |residual| exceeds this bound for FallbackAfter consecutive
	// windows: every scalar throttle limit is scaled by FallbackScale
	// until the residual recovers. 0 disables the fallback.
	FallbackResidualW float64 `json:"fallback_residual_w,omitempty"`
	// FallbackAfter is the consecutive-bad-window count that engages
	// the fallback; 0 selects 3.
	FallbackAfter int `json:"fallback_after,omitempty"`
	// FallbackRecovery is the consecutive-good-window count that
	// releases it; 0 selects FallbackAfter.
	FallbackRecovery int `json:"fallback_recovery,omitempty"`
	// FallbackScale multiplies the throttle limits while the fallback
	// is engaged; 0 selects 0.5.
	FallbackScale float64 `json:"fallback_scale,omitempty"`
}

// Enabled reports whether the spec injects anything at all.
func (s *Spec) Enabled() bool {
	return s != nil && (len(s.WeightScale) > 0 || len(s.WeightOffset) > 0 ||
		s.DriftPeriodMS > 0 || s.RecalPeriodMS > 0)
}

// vecLenOK accepts empty, broadcast, or per-event vectors.
func vecLenOK(v []float64) bool {
	return len(v) == 0 || len(v) == 1 || len(v) == int(counters.NumEvents)
}

// Validate rejects schedules that cannot be injected faithfully.
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	for name, v := range map[string][]float64{
		"weight_scale": s.WeightScale, "weight_offset": s.WeightOffset, "drift_factor": s.DriftFactor,
	} {
		if !vecLenOK(v) {
			return fmt.Errorf("faults: %s length %d (want 0, 1, or %d)", name, len(v), counters.NumEvents)
		}
	}
	for _, f := range s.WeightScale {
		if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("faults: weight scale %v out of range", f)
		}
	}
	if s.DriftPeriodMS < 0 {
		return fmt.Errorf("faults: drift period %d out of range", s.DriftPeriodMS)
	}
	if s.DriftPeriodMS > 0 && len(s.DriftFactor) == 0 {
		return fmt.Errorf("faults: drift period set without drift factors")
	}
	for _, f := range s.DriftFactor {
		if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("faults: drift factor %v out of range", f)
		}
	}
	if s.DriftSteps < 0 {
		return fmt.Errorf("faults: drift steps %d out of range", s.DriftSteps)
	}
	if s.RecalPeriodMS < 0 {
		return fmt.Errorf("faults: recal period %d out of range", s.RecalPeriodMS)
	}
	if s.RecalPeriodMS == 0 {
		// The residual loop is the only path sensor faults, the
		// recalibrator, and the fallback act through.
		switch {
		case s.RecalRate != 0:
			return fmt.Errorf("faults: recal rate without a recal period")
		case s.FallbackResidualW != 0:
			return fmt.Errorf("faults: fallback bound without a recal period")
		case s.DiodeNoiseC != 0 || s.DiodeStuckAfterMS != 0 || s.SampleDropP != 0 || s.SampleDelay != 0:
			return fmt.Errorf("faults: diode/sample faults without a recal period")
		}
	}
	if s.RecalRate < 0 || s.RecalRate > 1 {
		return fmt.Errorf("faults: recal rate %v out of range [0, 1]", s.RecalRate)
	}
	if s.RecalWarmup < 0 {
		return fmt.Errorf("faults: recal warmup %d out of range", s.RecalWarmup)
	}
	if s.DiodeNoiseC < 0 {
		return fmt.Errorf("faults: diode noise %v out of range", s.DiodeNoiseC)
	}
	if s.DiodeStuckAfterMS < 0 {
		return fmt.Errorf("faults: diode stuck-after %d out of range", s.DiodeStuckAfterMS)
	}
	if s.SampleDropP < 0 || s.SampleDropP >= 1 {
		return fmt.Errorf("faults: sample drop probability %v out of range [0, 1)", s.SampleDropP)
	}
	if s.SampleDelay < 0 || s.SampleDelay > 64 {
		return fmt.Errorf("faults: sample delay %d out of range [0, 64]", s.SampleDelay)
	}
	if s.FallbackResidualW < 0 {
		return fmt.Errorf("faults: fallback bound %v out of range", s.FallbackResidualW)
	}
	if s.FallbackAfter < 0 || s.FallbackRecovery < 0 {
		return fmt.Errorf("faults: fallback window counts out of range")
	}
	if s.FallbackScale < 0 || s.FallbackScale > 1 {
		return fmt.Errorf("faults: fallback scale %v out of range (0, 1]", s.FallbackScale)
	}
	return nil
}

// expand resolves a spec vector against an identity default.
func expand(v []float64, identity float64) [counters.NumEvents]float64 {
	var out [counters.NumEvents]float64
	for i := range out {
		out[i] = identity
	}
	switch len(v) {
	case 1:
		for i := range out {
			out[i] = v[0]
		}
	case int(counters.NumEvents):
		copy(out[:], v)
	}
	return out
}

// WindowResult is the outcome of one residual window.
type WindowResult struct {
	// Dropped: the sensor sample was lost; nothing else is valid.
	Dropped bool
	// HasResidual: a residual was computed this window (false while the
	// delay FIFO fills).
	HasResidual bool
	// ResidualW is sensed power minus modeled power, machine-wide (W).
	ResidualW float64
	// Adapted: the recalibrator updated the estimator weights.
	Adapted bool
	// Fallback is the divergence detector's state after this window.
	Fallback bool
	// FallbackChanged: the state flipped this window.
	FallbackChanged bool
}

// Injector is the per-machine fault state. All engines construct it
// identically from (Spec, seed), and every method is called at
// engine-identical instants with engine-identical inputs, so the fault
// sequence — including every RNG draw — is byte-identical across
// engines by induction.
type Injector struct {
	spec  Spec // resolved copy (defaults filled in)
	rng   *rng.Source
	diode thermal.Diode

	scale  [counters.NumEvents]float64
	offset [counters.NumEvents]float64
	drift  [counters.NumEvents]float64

	nextDriftMS  int64 // -1 when drift is disabled or exhausted
	driftApplied int

	stuck     bool
	haveReads bool
	lastTemps []float64 // per package: last diode reading
	senseIdx  int

	delayQ []float64

	// modelW low-pass-filters the per-window modeled power with the
	// same exponential the package temperature follows, so the residual
	// compares like against like: the diode reading lags real power by
	// the RC time constant, and so must the model side.
	modelW float64

	windows  int
	badRuns  int
	goodRuns int
	fallback bool
}

// NewInjector validates the spec and builds the injector for a machine
// with nPkg packages. The seed must be the machine seed: every engine
// then draws the identical fault stream.
func NewInjector(spec Spec, seed uint64, nPkg int) (*Injector, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.FallbackAfter == 0 {
		spec.FallbackAfter = 3
	}
	if spec.FallbackRecovery == 0 {
		spec.FallbackRecovery = spec.FallbackAfter
	}
	if spec.FallbackScale == 0 {
		spec.FallbackScale = 0.5
	}
	res := spec.DiodeResolutionC
	if res == 0 {
		res = thermal.DefaultDiode().ResolutionC
	}
	in := &Injector{
		spec: spec,
		// An independent stream: fault draws must not perturb the
		// machine's workload randomness (and vice versa).
		rng:         rng.New(seed ^ 0x9e3779b97f4a7c15),
		diode:       thermal.Diode{ResolutionC: res},
		scale:       expand(spec.WeightScale, 1),
		offset:      expand(spec.WeightOffset, 0),
		drift:       expand(spec.DriftFactor, 1),
		nextDriftMS: -1,
		lastTemps:   make([]float64, nPkg),
	}
	if spec.DriftPeriodMS > 0 {
		in.nextDriftMS = spec.DriftPeriodMS
	}
	return in, nil
}

// Spec returns the resolved schedule (defaults filled in).
func (in *Injector) Spec() Spec { return in.spec }

// Miscalibrate applies the static scale/offset mis-calibration to the
// weights, clamping at 0 — called once at machine construction on the
// machine's private copy of the estimator.
func (in *Injector) Miscalibrate(w *energy.Weights) {
	for i := range w {
		v := w[i]*in.scale[i] + in.offset[i]
		if v < 0 {
			v = 0
		}
		w[i] = v
	}
}

// NextDriftMS returns the next drift instant (a start-of-tick event,
// like a wake-up: the planner must end quanta before it), or -1 when
// no drift remains.
func (in *Injector) NextDriftMS() int64 { return in.nextDriftMS }

// ApplyDrift multiplies the weights by the drift factors and advances
// the drift schedule.
func (in *Injector) ApplyDrift(w *energy.Weights) {
	for i := range w {
		w[i] *= in.drift[i]
	}
	in.driftApplied++
	if in.spec.DriftSteps > 0 && in.driftApplied >= in.spec.DriftSteps {
		in.nextDriftMS = -1
	} else {
		in.nextDriftMS += in.spec.DriftPeriodMS
	}
}

// BeginWindow opens a residual window at nowMS: it updates the
// stuck-sensor state and decides whether this window's sample is
// dropped. The caller senses each package with SensePackage only when
// the sample was not dropped.
func (in *Injector) BeginWindow(nowMS int64) (dropped bool) {
	in.senseIdx = 0
	if !in.stuck && in.spec.DiodeStuckAfterMS > 0 && nowMS >= in.spec.DiodeStuckAfterMS {
		in.stuck = true
	}
	return in.spec.SampleDropP > 0 && in.rng.Float64() < in.spec.SampleDropP
}

// SensePackage reads one package's diode — noise, then quantization,
// then the stuck freeze — and converts the reading to the implied
// sustained power through the package's thermal properties (§4.2:
// T = T_amb + R·P). Packages must be sensed in ascending order, once
// per window.
func (in *Injector) SensePackage(tempC float64, props thermal.Properties) float64 {
	t := tempC
	if in.spec.DiodeNoiseC > 0 {
		t += in.spec.DiodeNoiseC * in.rng.NormFloat64()
	}
	t = in.diode.Quantize(t)
	i := in.senseIdx
	in.senseIdx++
	if in.stuck && in.haveReads {
		t = in.lastTemps[i]
	} else {
		in.lastTemps[i] = t
		if i == len(in.lastTemps)-1 {
			in.haveReads = true
		}
	}
	p := props.PowerForTemp(t)
	if p < 0 {
		p = 0
	}
	return p
}

// FinishWindow closes a residual window: sensedW is the summed implied
// power of the package diodes (ignored when dropped), modelWinW the
// machine's modeled average power over the window (estimator weights ×
// integer counter deltas, plus halt power for the idle residency), x
// the window's machine-wide counter deltas, winS the window length in
// seconds, and filterW the exponential weight matching the packages'
// thermal response at the window period. w is the live estimator
// weight vector the recalibrator adapts in place.
func (in *Injector) FinishWindow(dropped bool, sensedW, modelWinW float64, x counters.Frac, winS, filterW float64, w *energy.Weights) WindowResult {
	// The model-side thermal lag filter always advances — power kept
	// flowing whether or not the sensor sample arrived.
	in.modelW += filterW * (modelWinW - in.modelW)
	var res WindowResult
	if dropped {
		res.Dropped = true
		res.Fallback = in.fallback
		return res
	}
	if d := in.spec.SampleDelay; d > 0 {
		in.delayQ = append(in.delayQ, sensedW)
		if len(in.delayQ) <= d {
			res.Fallback = in.fallback
			return res // no reading old enough yet
		}
		sensedW = in.delayQ[0]
		in.delayQ = in.delayQ[:copy(in.delayQ, in.delayQ[1:])]
	}
	in.windows++
	resid := sensedW - in.modelW
	res.HasResidual = true
	res.ResidualW = resid

	// Online recalibration: one NLMS step on the window's counter
	// deltas. The correction Σ Δwᵢ·xᵢ equals RecalRate × the residual
	// energy of the window, attributed across event classes in
	// proportion to their activity; weights stay non-negative.
	if in.spec.RecalRate > 0 && in.windows > in.spec.RecalWarmup {
		xx := 0.0
		for _, xi := range x {
			xx += xi * xi
		}
		if xx > 0 {
			residJ := resid * winS
			for i := range w {
				wi := w[i] + in.spec.RecalRate*residJ*x[i]/xx
				if wi < 0 {
					wi = 0
				}
				w[i] = wi
			}
			res.Adapted = true
		}
	}

	// Divergence detector: sustained out-of-bound residuals engage the
	// conservative fallback; sustained recovery releases it.
	if b := in.spec.FallbackResidualW; b > 0 {
		if math.Abs(resid) > b {
			in.badRuns++
			in.goodRuns = 0
		} else {
			in.goodRuns++
			in.badRuns = 0
		}
		if !in.fallback && in.badRuns >= in.spec.FallbackAfter {
			in.fallback = true
			res.FallbackChanged = true
		} else if in.fallback && in.goodRuns >= in.spec.FallbackRecovery {
			in.fallback = false
			res.FallbackChanged = true
		}
	}
	res.Fallback = in.fallback
	return res
}
