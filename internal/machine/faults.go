package machine

import (
	"energysched/internal/counters"
	"energysched/internal/trace"
)

// This file is the machine side of the fault-injection loop
// (internal/faults): the residual window that senses package
// temperatures through the faulty diode, models the same window from
// the counter banks, and feeds the injector's recalibrator and
// divergence detector; plus the fallback transition that scales the
// throttle limits.
//
// Determinism across engines rests on the window inputs being
// engine-identical: the counter banks accumulate integer counts only on
// busy CPUs (so their sums carry no settle-order float error), idle and
// halted tick counters are exact integers, and the sensed temperatures
// pass through the diode's quantizer, which absorbs the async engines'
// ulp-level temperature differences except exactly at a
// quantization boundary — the same knife-edge class the throttle
// thresholds already accept.

// recalWindow closes the residual window ending at endMS.
func (m *Machine) recalWindow(endMS int64) {
	if m.async {
		// Bring every parked CPU's metrics/ticks and every parked
		// package's temperature current through this instant, exactly
		// like a monitor sample does.
		m.settleParkedTo(endMS + 1)
	}

	// Sensor side: each package's diode sits on its hottest core (the
	// quantity the §6.2 throttle protects) and its reading converts to
	// the implied sustained power through the package RC.
	dropped := m.faults.BeginWindow(endMS)
	sensedW := 0.0
	if !dropped {
		cores := m.Cfg.Layout.Cores()
		for p := range m.Cfg.PackageProps {
			t := m.nodes[p*cores].TempC
			for c := p*cores + 1; c < (p+1)*cores; c++ {
				if m.nodes[c].TempC > t {
					t = m.nodes[c].TempC
				}
			}
			sensedW += m.faults.SensePackage(t, m.Cfg.PackageProps[p])
		}
	}

	// Model side: the window's machine-wide integer counter deltas
	// through the current (possibly drifted/mis-calibrated) weights,
	// plus the estimator's halt power for the idle+halted residency.
	var sum counters.Counts
	for c := range m.banks {
		b := m.banks[c].Read()
		sum.Accum(&b)
	}
	delta := sum.Sub(m.recalPrev)
	m.recalPrev = sum
	var idleSum int64
	for c := range m.idleTicks {
		idleSum += m.idleTicks[c] + m.haltedTicks[c]
	}
	idleDelta := idleSum - m.recalIdlePrev
	m.recalIdlePrev = idleSum

	var xs counters.Frac
	modelJ := float64(idleDelta) * m.estIdleJ // estIdleJ is per idle ms
	for i, d := range delta {
		xs[i] = float64(d)
		modelJ += m.Est.Weights[i] * xs[i]
	}
	winMS := float64(m.recalPeriod)
	modelWinW := modelJ * 1000 / winMS

	res := m.faults.FinishWindow(dropped, sensedW, modelWinW, xs,
		winMS/1000, m.recalFilterW, &m.Est.Weights)
	if res.HasResidual {
		m.ResidualW = res.ResidualW
	}
	if res.Adapted {
		m.RecalibrationCount++
		m.emit(trace.Event{TimeMS: endMS, Kind: trace.Recal, TaskID: -1, CPU: -1, From: -1})
	}
	if res.FallbackChanged {
		m.setFallback(res.Fallback, endMS)
	}
}

// setFallback engages or releases the conservative fallback: every
// scalar throttle limit is scaled by the spec's FallbackScale (the §2.2
// "stop trusting the model, clamp harder" reaction). Unit-temperature
// throttles are left alone — their limits are temperatures read from
// the (trusted-enough) unit sensors, not model-derived powers.
func (m *Machine) setFallback(on bool, atMS int64) {
	m.fallbackOn = on
	kind := trace.FallbackOff
	if on {
		kind = trace.FallbackOn
	}
	m.emit(trace.Event{TimeMS: atMS, Kind: kind, TaskID: -1, CPU: -1, From: -1})
	if len(m.throttles) == 0 {
		return
	}
	scale := 1.0
	if on {
		scale = m.faults.Spec().FallbackScale
	}
	for i, th := range m.throttles {
		th.LimitW = m.origLimitW[i] * scale
	}
}
