package machine

import (
	"math/bits"

	"energysched/internal/sched"
	"energysched/internal/topology"
	"energysched/internal/units"
)

// The async discrete-event engine.
//
// The quantum planner (planner.go) removes the per-millisecond loop, but
// a planned quantum is *global* — it ends at the first event that
// crosses CPUs — so without parking one busy CPU would drag every idle
// CPU through its small steps, each paying a metric update and a
// thermal step (an exp/pow each) per quantum. The async engine gives
// each CPU its own clock. A busy CPU's clock (cpuSettledMS) runs ahead
// of the quantum's start through its own local events — same-task
// slice expiries and rate crossings — and its package's thermal clock
// (pkgSettledMS) with it (window.go); both reach the quantum's end when
// the step's execution and thermal phases close it. An idle CPU is
// *parked* and simply stops participating in the per-step work. Its
// state is brought forward lazily — in one closed-form "settling" over
// the whole elapsed gap — at the first instant something observes it:
//
//   - a wake-up, migration, or spawn placement enqueues work on it,
//   - a balance / idle-pull / hot-check pass reads its thermal-power
//     metric (these scan cross-CPU state, so they are the
//     synchronization points of the event system),
//   - a monitor sample reads its metric and temperatures,
//   - Run returns (so external observers always see settled state).
//
// Settling is exact by the same arguments that make batching exact: the
// idle power feed is constant, so the variable-period exponential
// average composes one gap-length update identically to per-step
// updates; the RC thermal step is closed-form over constant power; the
// unit throttles' tick accounting is integer addition. The engine
// therefore reproduces the lockstep engine's scheduling decisions
// bit-for-bit, with temperatures and energies equal up to
// floating-point rounding — enforced by TestEngineEquivalence.
//
// Two nested layers of parking exist, each with its own settle clock:
//
//   - per-CPU: the power metric and the idle-tick counter
//     (cpuSettledMS). On a machine with scalar throttles the metric
//     stays live while the CPU is parked: every throttle reads its
//     members' metrics each step, so parked CPUs stay on the active
//     list and take the execution sweep's idle branch. Only a machine
//     without scalar throttles defers parked metrics.
//   - per package: when every logical CPU of a package is parked, the
//     package's thermal state — core nodes, unit hotspots, unit
//     throttle accounting — freezes (pkgSettledMS) and settles in one
//     Step / StepOverBatched per core over the gap. Packages with
//     any active CPU keep stepping every quantum, because chip coupling
//     makes their idle cores' effective power time-varying.
//
// The quantum planner bounds each quantum by the earliest sleeper
// wake-up, a minimum over the sleeper list that the step's wake phase
// walks anyway.
//
// DVFS composes with parking for free: governors evaluate only
// occupied CPUs, and a CPU in hlt draws its sleep power whatever its
// P-state, so a parked CPU simply keeps its last-known P-state and its
// gap settles in the same closed forms. The one interaction: a CPU
// whose P-state transition is still in flight (decided, latency not
// yet elapsed) is kept in the per-step path until the transition
// lands, so the switch happens at exactly the lockstep instant.

// runAsync drives the shared step in planned quanta of at most
// maxQuantum milliseconds and settles all parked state before
// returning, so callers observe a fully materialized machine.
func (m *Machine) runAsync(durationMS int64) {
	end := m.nowMS + durationMS
	for m.nowMS < end {
		limit := end - m.nowMS
		if limit > m.maxQuantum {
			limit = m.maxQuantum
		}
		m.step(limit)
	}
	m.settleParkedTo(m.nowMS)
	// A Spawn before the next Run must settle parked state to the clock,
	// not one tick past it as the finished step's markers would.
	m.resetPhaseMarkers()
}

// resetPhaseMarkers points the settle targets at the current tick, as
// at the start of a step: nothing of the quantum at nowMS is folded in
// yet. Between Run calls the markers always hold these values.
func (m *Machine) resetPhaseMarkers() {
	m.qStartMS = m.nowMS
	m.metricsDone, m.thermalDone = false, false
}

// initAsync allocates the parking state. Called from New for the async
// engine; lockstep leaves m.async false and the step guards never
// fire.
func (m *Machine) initAsync() {
	nCPU := m.Cfg.Layout.NumLogical()
	nPkg := m.Cfg.Layout.NumPackages()
	m.parked = make([]bool, nCPU)
	m.cpuSettledMS = make([]int64, nCPU)
	m.pkgParked = make([]bool, nPkg)
	m.pkgSettledMS = make([]int64, nPkg)
	// Effective thermal power of a core while its whole package idles:
	// own idle share plus the chip-coupling share of its (equally idle)
	// neighbours. Constant, so parked packages settle in closed form.
	cores := m.Cfg.Layout.Cores()
	idleRaw := m.idleShareW * float64(m.Cfg.Layout.ThreadsPerPackage)
	m.idleEffW = idleRaw * (1 + coreCoupling*float64(cores-1))
	m.resetPhaseMarkers()
	m.stepList = make([]int32, 0, nCPU)
	m.stepCores = make([]int32, 0, len(m.nodes))
	// Membership bitmaps behind the two active lists, all-set to start
	// (nothing is parked yet). The trailing bits of the last word stay
	// zero so the materialization loops need no bounds check.
	m.liveCPUBits = make([]uint64, (nCPU+63)/64)
	for c := 0; c < nCPU; c++ {
		m.liveCPUBits[c>>6] |= 1 << (uint(c) & 63)
	}
	m.liveCoreBits = make([]uint64, (len(m.nodes)+63)/64)
	for c := range m.nodes {
		m.liveCoreBits[c>>6] |= 1 << (uint(c) & 63)
	}
	// Settle-on-read: a balance, hot-check, or placement pass that
	// reads a parked CPU's thermal power settles just that CPU, at the
	// phase-correct target, instead of a machine-wide settle of every
	// parked one. The closed idle form is interval-additive, so the
	// split between this settle and the eventual unpark/monitor settle
	// lands on exactly the values a full settle would have produced.
	m.Sched.Hooks.ThermalRead = func(cpu topology.CPUID) {
		if c := int(cpu); m.parked[c] && m.metricsDeferred() {
			m.settleCPUMetricTo(c, m.metricSettleTo())
		}
	}
	m.stepListDirty = true
	m.stepCoresDirty = true
	m.parkDirty = true
}

// setLiveCPU adds a CPU to the active-CPU set; O(1), dirties the
// materialized list only when membership actually changes.
func (m *Machine) setLiveCPU(c int) {
	w, b := c>>6, uint64(1)<<(uint(c)&63)
	if m.liveCPUBits[w]&b == 0 {
		m.liveCPUBits[w] |= b
		m.stepListDirty = true
	}
}

// clearLiveCPU removes a CPU from the active-CPU set.
func (m *Machine) clearLiveCPU(c int) {
	w, b := c>>6, uint64(1)<<(uint(c)&63)
	if m.liveCPUBits[w]&b != 0 {
		m.liveCPUBits[w] &^= b
		m.stepListDirty = true
	}
}

// setPkgCores adds or removes a package's cores from the active-core
// set.
func (m *Machine) setPkgCores(p int, on bool) {
	cores := m.Cfg.Layout.Cores()
	for core := p * cores; core < (p+1)*cores; core++ {
		w, b := core>>6, uint64(1)<<(uint(core)&63)
		if on {
			m.liveCoreBits[w] |= b
		} else {
			m.liveCoreBits[w] &^= b
		}
	}
	m.stepCoresDirty = true
}

// cpuParked reports whether the async engine has parked a CPU; always
// false on lockstep.
func (m *Machine) cpuParked(c int) bool { return m.async && m.parked[c] }

// stepCPUs returns the CPUs the per-step phases must visit, ascending:
// every CPU on the lockstep engine; on the async engine the un-parked
// CPUs, plus every parked CPU when the machine has scalar throttles
// (their metrics update per step). Materialized lazily from the
// membership bitmap in O(set bits + nCPU/64), so park/unpark churn on a
// mostly-idle machine without scalar throttles costs O(busy), not
// O(nCPU).
func (m *Machine) stepCPUs() []int32 {
	if !m.async {
		return m.allCPUs
	}
	if m.stepListDirty {
		m.stepList = materialize(m.stepList[:0], m.liveCPUBits)
		m.stepListDirty = false
	}
	return m.stepList
}

// stepCoreList returns the cores whose thermal nodes step this quantum,
// ascending: every core except those of parked packages (which settle
// in closed form when observed).
func (m *Machine) stepCoreList() []int32 {
	if !m.async {
		return m.allCores
	}
	if m.stepCoresDirty {
		m.stepCores = materialize(m.stepCores[:0], m.liveCoreBits)
		m.stepCoresDirty = false
	}
	return m.stepCores
}

// materialize appends the set bit indices of a membership bitmap to dst,
// ascending.
func materialize(dst []int32, words []uint64) []int32 {
	for w, word := range words {
		base := int32(w << 6)
		for word != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}

// metricsDeferred reports whether parked CPUs defer their power
// metrics. Scalar throttles read every member's metric each step, so on
// a machine with any of them parked CPUs keep the per-step idle update.
func (m *Machine) metricsDeferred() bool { return len(m.throttles) == 0 }

// earliestWake returns the earliest pending wake-up time, or
// NoDeadline when no task sleeps.
func (m *Machine) earliestWake() int64 {
	at := int64(sched.NoDeadline)
	for _, ts := range m.sleepers {
		if ts.wakeAtMS < at {
			at = ts.wakeAtMS
		}
	}
	return at
}

// metricSettleTo returns the tick up to (exclusive) which a parked
// CPU's idle metric must be brought forward to match the shared step's
// state at the current phase: before the execution phase nothing of the
// current quantum is folded in yet; after it the whole quantum is.
func (m *Machine) metricSettleTo() int64 {
	if m.metricsDone {
		return m.nowMS + 1
	}
	return m.qStartMS
}

// thermWeightFor returns the thermal sample weight for a period,
// through the machine-wide cache when every tracker shares one
// calibration and through cpu's own tracker otherwise. Both paths
// produce the value WeightFor computes for the period — the shared
// cache only skips repeating the math.Pow per CPU.
func (m *Machine) thermWeightFor(cpu int, periodMS float64) float64 {
	if !m.thermWShared {
		return m.Sched.Power[cpu].ThermalWeightFor(periodMS)
	}
	if periodMS != m.lastSettleGap {
		m.lastSettleGap = periodMS
		m.lastSettleW = m.Sched.Power[cpu].ThermalWeightFor(periodMS)
	}
	return m.lastSettleW
}

// settleCPUMetricTo folds the idle gap [cpuSettledMS, to) into CPU d's
// power metric and idle-tick counter.
func (m *Machine) settleCPUMetricTo(d int, to int64) {
	if gap := to - m.cpuSettledMS[d]; gap > 0 {
		fg := float64(gap)
		m.Sched.Power[d].AddEnergyWeighted(m.estIdleJ*fg, fg, m.thermWeightFor(d, fg))
		m.TrueEnergyJ += m.idleShareW * fg / 1000
		m.idleTicks[d] += gap
		m.cpuSettledMS[d] = to
	}
}

// settlePackageThermal integrates a parked package's thermal state over
// [pkgSettledMS, to): each core one closed-form RC step at the constant
// idle effective power, each unit hotspot one StepOverBatched against
// the core's geometric relaxation (parked CPUs hold zero unit power),
// and the unit throttles' tick accounting. The package stays parked;
// only its clock advances.
func (m *Machine) settlePackageThermal(p int, to int64) {
	gap := to - m.pkgSettledMS[p]
	if gap <= 0 {
		return
	}
	cores := m.Cfg.Layout.Cores()
	fg := float64(gap)
	for core := p * cores; core < (p+1)*cores; core++ {
		node := m.nodes[core]
		start := node.TempC
		node.StepDecay(m.idleEffW, m.thermDecayFor(core, fg))
		if m.unitNodes != nil {
			m.stepUnits(core, gap, start, m.idleEffW)
		}
		// Constant power over the gap makes the RC response monotone,
		// so the endpoint captures the gap's extremum (the start was
		// checked before the package parked) — keeps PeakTempC
		// engine-identical while idle cores warm toward steady state.
		if node.TempC > m.peakTempC {
			m.peakTempC = node.TempC
		}
		if m.unitThrottles != nil {
			m.unitThrottles[core].Account(gap)
		}
	}
	m.pkgSettledMS[p] = to
}

// settleParkedTo brings every parked CPU's deferred metric and every
// parked package's thermal state forward to tick to (exclusive). They
// stay parked — only their settle clocks advance — so the caller can
// read any metric, temperature, or accounting field as if the machine
// had stepped every quantum. Called at a quantum's end before a monitor
// sample or a recalibration window reads machine-wide state, and when
// Run returns.
func (m *Machine) settleParkedTo(to int64) {
	if m.nParked == 0 {
		return // nothing parked, nothing deferred
	}
	if m.metricsDeferred() {
		for c := range m.parked {
			if m.parked[c] {
				m.settleCPUMetricTo(c, to)
			}
		}
	}
	for p := range m.pkgParked {
		if m.pkgParked[p] {
			m.settlePackageThermal(p, to)
		}
	}
}

// activateCPU un-parks a CPU because work is about to be enqueued on it
// (wake-up, migration, or spawn placement). Its metric and its package
// rejoin the per-step path with settled state. Nothing in the execution
// sweep enqueues work (respawns wait in respawnQ until the sweep ends),
// so the active list never changes under the sweep's cursor.
func (m *Machine) activateCPU(cpu topology.CPUID) {
	c := int(cpu)
	if !m.parked[c] {
		return
	}
	if m.metricsDeferred() {
		m.settleCPUMetricTo(c, m.metricSettleTo())
	}
	m.unparkPackage(int(m.Topo.PkgOf[c]))
	m.parked[c] = false
	m.nParked--
	m.setLiveCPU(c)
}

// unparkPackage returns a package to per-quantum thermal stepping.
func (m *Machine) unparkPackage(p int) {
	if !m.pkgParked[p] {
		return
	}
	to := m.qStartMS
	if m.thermalDone {
		to = m.nowMS + 1
	}
	m.settlePackageThermal(p, to)
	m.pkgParked[p] = false
	m.setPkgCores(p, true)
}

// parkIdleCPUs runs at the end of every async step: CPUs that ended the
// step with nothing to run are parked, and fully parked packages freeze
// their thermal state. m.nowMS already points past the quantum,
// so every settle clock starts exactly at the first unprocessed tick.
func (m *Machine) parkIdleCPUs() {
	now := m.nowMS
	newParked := false
	// The candidate scan runs only when a queue could have emptied since
	// the last sweep (parkDirty): a CPU becomes parkable only when its
	// last task blocks, finishes, ends a timeslice with an empty queue,
	// migrates away, or a held-back P-state transition applies — every
	// such site sets the flag. On a saturated machine no queue ever
	// empties and the sweep is a flag test.
	if m.parkDirty {
		m.parkDirty = false
		for _, c32 := range m.stepCPUs() {
			c := int(c32)
			rq := m.Sched.RQs[c]
			if m.parked[c] || rq.Current != nil || len(rq.Queued()) > 0 {
				continue
			}
			if m.dvfsOn && m.pendingIdx[c] >= 0 {
				// A P-state transition is in flight (the task blocked or
				// finished between decision and effect); stay in the
				// per-step path until it applies, so the transition — and
				// its trace event — lands at exactly the lockstep instant.
				continue
			}
			m.parked[c] = true
			m.nParked++
			newParked = true
			m.truePower[c] = m.idleShareW
			if m.unitPowerW != nil {
				m.unitPowerW[c] = units.Energies{}
			}
			m.execSpeed[c] = 0
			if m.metricsDeferred() {
				// No scalar throttle reads the metric: it defers and the
				// CPU leaves the active list. Under scalar throttles the
				// CPU stays on it and its metric keeps stepping.
				m.cpuSettledMS[c] = now
				m.clearLiveCPU(c)
			}
		}
	}
	if !newParked && m.nParked == 0 {
		return
	}
	// Package thermal parking: every logical CPU parked, and — under
	// unit throttling — no unit throttle engaged or able to engage
	// while the package cools toward its idle steady state (unit
	// temperatures relax toward the core reference, which itself moves
	// monotonically toward the idle steady temperature, so all
	// temperatures stay below max(current, idle steady)).
	layout := m.Cfg.Layout
	cores := layout.Cores()
	threads := layout.ThreadsPerPackage
pkgs:
	for p := range m.pkgParked {
		if m.pkgParked[p] {
			continue
		}
		for c := p * cores; c < (p+1)*cores; c++ {
			for t := 0; t < threads; t++ {
				if !m.parked[int(layout.CPUOfCore(c, t))] {
					continue pkgs
				}
			}
		}
		if m.unitThrottles != nil {
			for core := p * cores; core < (p+1)*cores; core++ {
				th := m.unitThrottles[core]
				if th.Engaged() {
					continue pkgs
				}
				if th.LimitW <= 0 {
					continue
				}
				hi := m.nodes[core].Props.SteadyTemp(m.idleEffW)
				if t := m.nodes[core].TempC; t > hi {
					hi = t
				}
				for _, n := range m.unitNodes[core] {
					if n.TempC > hi {
						hi = n.TempC
					}
				}
				if hi+1e-9 >= th.LimitW {
					continue pkgs
				}
			}
		}
		m.pkgParked[p] = true
		m.pkgSettledMS[p] = now
		m.setPkgCores(p, false)
	}
}
