package machine

import (
	"math"

	"energysched/internal/counters"
	"energysched/internal/sched"
	"energysched/internal/topology"
	"energysched/internal/trace"
	"energysched/internal/units"
	"energysched/internal/workload"
)

// This file holds the engine-independent simulation step: advancing the
// whole machine by one quantum of dt ≥ 1 milliseconds over which every
// decision that reads across CPUs holds — same tasks on the same CPUs,
// same halt decisions, same execution speeds; each busy CPU's event
// rates are constant between its own local events (window.go). The
// lockstep engine (lockstep.go) calls step with dt capped at 1; the
// async engine (async.go) lets step plan the largest safe dt from the
// event horizons (planner.go) and then runs the very same phases, so a
// 1 ms quantum is bit-for-bit the lockstep millisecond.
//
// The quantum convention: a step covers the ticks [nowMS, nowMS+dt).
// Start-of-tick actions (wake-ups, dispatching idle CPUs, throttle
// engagement) happen at nowMS; end-of-tick actions (timeslice expiry,
// blocking, completion, balancing, metric sampling) happen at
// nowMS+dt−1, the quantum's last tick — exactly where the lockstep loop
// performs them.

// Run advances the simulation by durationMS milliseconds using the
// configured engine.
func (m *Machine) Run(durationMS int64) {
	if m.async {
		m.runAsync(durationMS)
	} else {
		m.runLockstep(durationMS)
	}
}

// step simulates one quantum of at most limitMS milliseconds and
// returns the quantum length actually executed. limitMS must be ≥ 1;
// with limitMS == 1 the step is exactly one lockstep tick.
func (m *Machine) step(limitMS int64) int64 {
	layout := m.Cfg.Layout
	nCPU := layout.NumLogical()
	threads := layout.ThreadsPerPackage
	if m.async {
		m.resetPhaseMarkers()
	}

	// 1. Wake sleepers whose block time elapsed. Wake-up keeps CPU
	// affinity: the task returns to the runqueue it blocked on.
	if len(m.sleepers) > 0 {
		kept := m.sleepers[:0]
		for _, ts := range m.sleepers {
			if ts.wakeAtMS <= m.nowMS {
				ts.sleeping = false
				if m.async {
					m.activateCPU(ts.st.CPU)
				}
				m.Sched.RQ(ts.st.CPU).Enqueue(ts.st)
				m.emit(trace.Event{TimeMS: m.nowMS, Kind: trace.Wake, TaskID: ts.st.ID, CPU: int(ts.st.CPU), From: -1})
			} else {
				kept = append(kept, ts)
			}
		}
		m.sleepers = kept
	}

	// 1b. Apply P-state transitions whose latency elapsed — a
	// start-of-tick event: the new frequency and voltage hold for the
	// whole quantum (the planner never lets a due transition fall
	// inside one). CPUs with a pending transition are never parked, so
	// they are always on the active list and the async engine reaches
	// this point for them every step.
	if m.nPending > 0 {
		for _, c32 := range m.stepCPUs() {
			c := int(c32)
			if m.pendingIdx[c] < 0 || m.pendingAt[c] > m.nowMS {
				continue
			}
			old := m.freqIdx[c]
			idx := m.pendingIdx[c]
			m.freqIdx[c] = idx
			m.speedScale[c] = m.dvfsCfg.Ladder.SpeedScale(idx)
			m.powScale[c] = m.dvfsCfg.Ladder.EnergyScale(idx)
			m.pendingIdx[c] = -1
			m.nPending--
			// The transition was holding this CPU back from parking.
			m.parkDirty = true
			m.PStateSwitches++
			m.emit(trace.Event{TimeMS: m.nowMS, Kind: trace.PState, TaskID: -1,
				CPU: c, From: old, Detail: m.psLabels[idx]})
		}
	}

	// 1c. Estimator weight drift — a start-of-tick fault event, like a
	// P-state transition: the drifted weights hold for the whole
	// quantum (the planner never lets a drift instant fall inside one).
	if m.faults != nil {
		for d := m.faults.NextDriftMS(); d >= 0 && d <= m.nowMS; d = m.faults.NextDriftMS() {
			m.faults.ApplyDrift(&m.Est.Weights)
			m.emit(trace.Event{TimeMS: m.nowMS, Kind: trace.Drift, TaskID: -1, CPU: -1, From: -1})
		}
	}

	// 2. Dispatch idle CPUs (parked CPUs provably have empty queues:
	// any enqueue un-parks the target first).
	for _, c32 := range m.stepCPUs() {
		c := int(c32)
		if m.cpuParked(c) {
			continue
		}
		rq := m.Sched.RQ(topology.CPUID(c))
		if rq.Current == nil {
			if t := rq.PickNext(); t != nil {
				m.startDispatch(topology.CPUID(c), m.tasks[t.ID], m.nowMS)
				if m.govPeriod > 0 {
					// cpufreq's idle-exit reset: a pure-idle stale
					// window restarts here so the first governor
					// evaluation measures the new occupancy, not the
					// idle span (see UtilTracker.IdleExit).
					m.Sched.Util[c].IdleExit(m.nowMS)
				}
			}
		}
	}

	// 3. Throttle decisions from the thermal-power metric (§6.2), plus
	// — under the §7 extension — unit-temperature throttling: a core
	// halts while any of its functional-unit hotspots exceeds the
	// unit limit. Engagement state transitions here; per-tick
	// accounting is deferred until the quantum length is known.
	throttledStep := m.throttledCPUs()
	if m.unitThrottles != nil {
		cores := layout.Cores()
		for core, th := range m.unitThrottles {
			if m.async && m.pkgParked[core/cores] {
				// Parked package: temperatures are falling below the
				// limit, so the engage decision cannot change (see
				// async.go).
				continue
			}
			maxT := 0.0
			for _, n := range m.unitNodes[core] {
				if n.TempC > maxT {
					maxT = n.TempC
				}
			}
			if th.Engage(maxT) {
				for t := 0; t < threads; t++ {
					throttledStep[int(layout.CPUOfCore(core, t))] = true
				}
			}
		}
	}
	// The per-CPU half of the decision: halt or run, then the SMT,
	// warmup, and DVFS speed factors. The SMT factor reads the siblings'
	// halt decisions, so every CPU decides before any is scaled.
	m.resolveHalts(throttledStep)
	m.smtScale()

	// 5. Fix the quantum: the largest dt over which every decision made
	// above provably holds (1 for the lockstep engine). In a window
	// (window.go) busy CPUs then step through their local events —
	// same-task slice expiries and rate crossings, committed at their
	// own ticks in (tick, CPU) order — and a rate crossing may end the
	// window earlier.
	dt, why := limitMS, HorizonLimit
	if dt > 1 {
		dt, why = m.planQuantum(dt)
		if dt > 1 {
			dt, why = m.runWindow(throttledStep)
		}
		// The rest of the quantum executes: phases 6–8 read feeds
		// afresh.
		m.feedsCached = false
	}
	if m.qstats != nil {
		m.qstats.add(dt, why)
	}
	fdt := float64(dt)
	// From here on the machine clock points at the quantum's last tick:
	// end-of-tick actions (slice expiry, blocking, completion,
	// balancing, migration hooks, sampling) and anything they trigger
	// (respawns, migration events) stamp this instant, exactly as the
	// lockstep loop does. step advances the clock past the quantum just
	// before returning.
	m.nowMS += dt - 1
	endMS := m.nowMS
	for _, th := range m.throttles {
		th.Account(dt)
	}
	if m.unitThrottles != nil {
		cores := layout.Cores()
		for core, th := range m.unitThrottles {
			if m.async && m.pkgParked[core/cores] {
				continue
			}
			th.Account(dt)
		}
	}
	if m.fallbackOn {
		m.FallbackTicks += dt
	}

	// 6. Execute, account energy. The workload integrates each CPU's
	// rest of the quantum — from its clock, which local events may have
	// advanced (execCloseCPU), through the end tick — in one call
	// (exactly, thanks to its progress-indexed stochastic processes);
	// the thermal-power metric folds the piece's average power in one
	// variable-period update, which the exponential average composes
	// identically to per-millisecond updates.
	//
	// The sweep walks the active list — the same CPUs the old full scan
	// visited (parked CPUs settle lazily when observed; under scalar
	// throttles parked CPUs stay on the list and take the idle branch
	// because the throttles read their metrics every step). Nothing in
	// the sweep enqueues work — respawns wait in respawnQ — so the list
	// never changes under the cursor. Each CPU's piece is computed and
	// then committed, ascending: the end tick's commits in CPU order,
	// as the lockstep loop makes them.
	//
	// Every CPU folds this quantum's average power over the same fdt, so
	// the variable-period sample weight is computed once for the sweep
	// (per tracker when calibrations differ across packages).
	quantW := m.thermWeightFor(0, fdt)
	nominal := m.nominalPState()
	for _, c32 := range m.stepCPUs() {
		c := int(c32)
		m.execCloseCPU(c, throttledStep, dt, fdt, quantW, nominal)
		if m.p6stat[c] != 0 { // not committed at the end tick by a pop
			m.execCommitCPU(c, endMS)
		}
	}

	// 7. Thermal model: each core integrates its own true power plus a
	// coupling share of its chip neighbours' (§7 CMP extension; on
	// single-core packages the coupling term vanishes and this is the
	// paper's per-package RC model). The RC step is closed-form, so one
	// dt-millisecond step equals dt single steps at the same power. A
	// package whose CPUs' local events settled it inside the quantum
	// steps from its own clock (settleLivePackage); the others share one
	// exponential per step length (thermDecayFor).
	// Fully parked packages sit this phase out: their cores' effective
	// power is the constant idle share, so the whole gap settles in one
	// closed-form step when the package is next observed (async.go).
	if m.async {
		m.metricsDone = true
	}
	// Respawns the sweep queued: every tracker is now current through
	// the quantum's end tick — the same instant the lockstep loop
	// reads — so placement picks the same CPU under every engine. A
	// placement that un-parks a CPU settles its metric over the whole
	// quantum and its package to the quantum start, so the package
	// rejoins the core list below in time for the thermal phase.
	for _, prog := range m.respawnQ {
		m.Spawn(prog)
	}
	m.respawnQ = m.respawnQ[:0]
	decay := 0.0 // shared by every node, or 0: each node's own
	if m.decayShared {
		decay = m.thermDecayFor(0, fdt)
	}
	m.thermalStep(dt, fdt, decay)

	// 8. Periodic balancing and hot-task checks, staggered per CPU on
	// the deadline scheduler. The planner guarantees that the only
	// deadlines strictly inside the quantum are provable no-ops:
	// balance and idle-pull instants while nothing is queued, and hot
	// checks whose core sum stays below its trigger or which find no
	// core considerably cooler. So firing at the end tick alone makes
	// every decision the lockstep loop makes.
	// The async engine walks the precomputed due-CPU lists of the end
	// tick and skips the passes that provably change nothing (balance
	// with no task queued anywhere, hot checks on parked CPUs or with
	// no core cool enough under the plan's destination floor). While
	// nothing is queued it walks the hot list alone, resuming the
	// merged walk at the next CPU if a hot check queues a task; the
	// passes read deferred metrics, which settle lazily through the
	// ThermalRead hook. The lockstep engine keeps the historical
	// per-CPU modulo scan and runs every pass, the reference that the
	// skipped passes are asserted byte-identical against.
	if m.async {
		m.thermalDone = true
		m.fireDueDeadlines(endMS)
	} else {
		for c := 0; c < nCPU; c++ {
			cpu := topology.CPUID(c)
			if m.wheel.BalanceDue(endMS, c) {
				m.Sched.Balance(cpu)
				m.Sched.UnitBalance(cpu)
			} else if m.Sched.RQ(cpu).Idle() && m.wheel.IdlePullDue(endMS, c) {
				// Idle balancing: an idle CPU tries to pull work
				// promptly, like Linux's idle rebalance.
				m.Sched.Balance(cpu)
			}
			if m.wheel.HotDue(endMS, c) {
				m.Sched.HotCheck(cpu)
			}
		}
	}

	// 8b. DVFS governor evaluations, staggered per CPU on the deadline
	// scheduler like the balancer passes. Only occupied CPUs are
	// evaluated: an idle CPU sits in hlt, where its P-state draws no
	// extra power and decides nothing — it simply keeps its last state
	// (which is what lets the async engine park idle CPUs without
	// deferring any governor work). The async engine evaluates only at
	// the end tick: the planner ends a quantum at every ondemand
	// evaluation, and at every thermal one that could change a P-state
	// (govFirstAct); the thermal evaluations it steps over are
	// provable no-ops whose window restarts phase 6 already replayed.
	if m.dvfsOn && m.govPeriod > 0 {
		if m.async {
			for _, c32 := range m.wheel.GovDueCPUs(endMS) {
				c := int(c32)
				if m.cpuParked(c) {
					continue
				}
				m.deadlineFires[fireGov]++
				m.governorEval(c, endMS)
			}
		} else {
			for c := 0; c < nCPU; c++ {
				if !m.wheel.GovDue(endMS, c) {
					continue
				}
				m.governorEval(c, endMS)
			}
		}
	}

	// 8c. Residual window of the fault-injection loop — an end-of-tick
	// event on the same footing as a monitor sample: the planner aligns
	// quantum ends to the window boundary, and the async engine settles
	// parked state to the window instant first.
	if p := m.recalPeriod; p > 0 && endMS%p == 0 {
		m.recalWindow(endMS)
	}

	// 9. Metric sampling (the async engine settles deferred state
	// first — the series must show every CPU and core at the sample
	// instant).
	if p := m.Cfg.MonitorPeriodMS; p > 0 && endMS%int64(p) == 0 {
		if m.async {
			m.settleParkedTo(endMS + 1)
		}
		for c := 0; c < nCPU; c++ {
			m.tpSeries[c].Append(m.Sched.Power[c].ThermalPower())
		}
		for core := range m.nodes {
			m.tempSeries[core].Append(m.nodes[core].TempC)
		}
	}

	// Advance the clock past the quantum.
	m.nowMS++
	if m.async {
		m.parkIdleCPUs()
	}
	return dt
}

// coupledEffPower returns the effective power heating core's thermal
// node: its own raw power plus the coreCoupling share of its chip
// neighbours'. Shared between the thermal phase of step and the
// planner's unit-temperature horizon so both provably use the same
// coupling model.
func (m *Machine) coupledEffPower(raw []float64, core int) float64 {
	cores := m.Cfg.Layout.Cores()
	eff := raw[core]
	if cores > 1 {
		pkg := core / cores
		for cc := pkg * cores; cc < (pkg+1)*cores; cc++ {
			if cc != core {
				eff += coreCoupling * raw[cc]
			}
		}
	}
	return eff
}

// throttledCPUs runs the throttle engagement for this step and returns,
// per logical CPU, whether it must halt. Each throttle decides on the
// summed thermal power of its precomputed member group — the same
// groups the planner's crossing prediction iterates. The returned slice
// is a scratch buffer reused across steps, cleared whole when any
// throttle exists: unit throttles write every thread of an engaged
// core, parked ones included.
func (m *Machine) throttledCPUs() []bool {
	nCPU := m.Cfg.Layout.NumLogical()
	if m.throttleScratch == nil {
		m.throttleScratch = make([]bool, nCPU)
	}
	out := m.throttleScratch
	if len(m.throttles) == 0 && m.unitThrottles == nil {
		// No throttle can ever engage: the scratch stays all-false (the
		// per-CPU decision loop only ever writes false back), so the
		// per-step clear is skipped.
		return out
	}
	clear(out)
	for i, th := range m.throttles {
		members := m.throttleMembers[i]
		sum := 0.0
		for _, cpu := range members {
			sum += m.Sched.Power[int(cpu)].ThermalPower()
		}
		h := th.Engage(sum)
		for _, cpu := range members {
			out[int(cpu)] = h
		}
	}
	return out
}

// resolveHalts makes the phase-3 halt decision for each occupied,
// un-parked CPU: it runs at speed 1 unless its throttle group engaged,
// and the throttle edges go to the trace in ascending CPU order. Under
// the §2.3 hot-task policy only tasks responsible for the overheating
// are halted; a cool task keeps running even while the throttle is
// engaged. A hot task at the head of the queue is rotated away (its
// slice ends) so cool queue-mates are not starved behind it; the CPU
// halts this tick only if the queue's head is still hot. The planner
// keeps 1 ms spans while any throttle is engaged under that policy, so
// the per-tick rotation runs exactly as in lockstep.
func (m *Machine) resolveHalts(throttledStep []bool) {
	for _, c32 := range m.stepCPUs() {
		c := int(c32)
		if m.cpuParked(c) {
			continue // execSpeed stays 0; no runnable task, no trace edge
		}
		m.execSpeed[c] = 0
		rq := m.Sched.RQ(topology.CPUID(c))
		if rq.Current == nil {
			continue
		}
		halt := throttledStep[c]
		if halt && m.Cfg.TaskThrottling {
			cpu := topology.CPUID(c)
			sustainable := m.Sched.MaxPower(cpu)
			if rq.Current.ProfiledWatts() > sustainable && len(rq.Queued()) > 0 {
				m.endTimeslice(cpu, m.nowMS)
			}
			if rq.Current != nil && rq.Current.ProfiledWatts() <= sustainable {
				halt = false
				throttledStep[c] = false
			}
		}
		if !halt {
			m.execSpeed[c] = 1
		}
		if m.Cfg.Trace != nil && halt != m.prevHalt[c] {
			kind := trace.ThrottleOff
			if halt {
				kind = trace.ThrottleOn
			}
			m.emit(trace.Event{TimeMS: m.nowMS, Kind: kind, TaskID: -1, CPU: c, From: -1})
		}
		m.prevHalt[c] = halt
	}
}

// smtScale applies the phase-4/4b speed factors to the step's CPUs.
// SMT contention: a logical CPU executing alongside a busy sibling runs
// at the slowdown factor — the busy/idle predicate the check reads is
// invariant under every later scaling (slowdown, warmup, and DVFS
// factors are all > 0), so the ascending walk reads the same siblings
// a simultaneous one would. Cache-warmup penalties after a migration
// (§4.1) fold in next, then the P-state's f/f_max factor composes
// multiplicatively (the SMT check deliberately ran on the unscaled
// speeds: a sibling contends for the core's functional units whatever
// its frequency). execSpeed is then the final execution speed of the
// quantum, and every planner horizon divides by it.
func (m *Machine) smtScale() {
	cpus := m.stepCPUs()
	if m.Cfg.Layout.ThreadsPerPackage > 1 {
		for _, c32 := range cpus {
			c := int(c32)
			if m.execSpeed[c] == 0 {
				continue
			}
			for _, sib32 := range m.Topo.CPUsOfCore(int(m.Topo.CoreOf[c])) {
				if sib := int(sib32); sib != c && m.execSpeed[sib] > 0 {
					m.execSpeed[c] = smtSlowdown
					break
				}
			}
		}
	}
	for _, c32 := range cpus {
		c := int(c32)
		if m.execSpeed[c] == 0 {
			continue
		}
		if t := m.Sched.RQ(topology.CPUID(c)).Current; t.WarmupLeft > 0 {
			m.execSpeed[c] *= sched.WarmupSpeed
		}
	}
	if m.dvfsOn {
		for _, c32 := range cpus {
			if c := int(c32); m.execSpeed[c] > 0 {
				m.execSpeed[c] *= m.speedScale[c]
			}
		}
	}
}

// Staged task transitions of a computed piece (p6stat values): the
// compute half records what the piece did to the CPU's dispatch and
// execCommitCPU replays the consequences.
const (
	p6Idle = iota + 1
	p6Run
	p6Finish
	p6Block
)

// execCloseCPU computes CPU c's last piece of the quantum: from its
// clock, which local events may have advanced past the quantum's start
// (window.go), through the end tick. A CPU whose end tick was already
// executed as a rate crossing (eagerTick) has its commit staged and
// computes nothing. The sample weight of a shorter piece comes from
// thermWeightFor, the machine-wide table when the trackers share it.
func (m *Machine) execCloseCPU(c int, throttledStep []bool, dt int64, fdt, quantW float64, nominal int) {
	if from := m.clockOf(c); from > m.qStartMS {
		dt = m.nowMS + 1 - from
		if dt <= 0 {
			return
		}
		fdt = float64(dt)
		quantW = m.thermWeightFor(c, fdt)
	}
	m.execComputeCPU(c, throttledStep, dt, fdt, quantW, nominal)
}

// execComputeCPU integrates a piece of dt ticks of CPU c into its
// workload, counter banks, utilization, thermal-power metric and
// per-unit power, and stages the global-accumulator terms (true
// energy, estimation error, work done) plus the task transition for
// execCommitCPU. The per-tick halted/downclocked occupancy counters
// fold in here too: they are per-CPU and depend only on pre-sweep
// state.
func (m *Machine) execComputeCPU(c int, throttledStep []bool, dt int64, fdt, quantW float64, nominal int) {
	tickRes := &m.tickScratch
	rq := m.Sched.RQ(topology.CPUID(c))
	speed := m.execSpeed[c]
	if !m.thermWShared {
		quantW = m.Sched.Power[c].ThermalWeightFor(fdt)
	}
	if throttledStep[c] && rq.Current != nil {
		m.haltedTicks[c] += dt
	}
	if speed == 0 {
		// Idle or halted: sleep power only (hlt power does not
		// depend on the P-state).
		m.truePower[c] = m.idleShareW
		if m.unitPowerW != nil {
			m.unitPowerW[c] = units.Energies{}
		}
		m.p6true[c] = m.idleShareW * fdt / 1000
		m.p6stat[c] = p6Idle
		m.Sched.Power[c].AddEnergyWeighted(m.estIdleJ*fdt, fdt, quantW)
		if rq.Current == nil {
			m.idleTicks[c] += dt
		} else if m.govPeriod > 0 {
			// Halted with a runnable task: occupied, not idle.
			// (Utilization feeds only active governors — skip the
			// tracker when no governor evaluates.)
			m.addBusy(c, dt, fdt)
		}
		return
	}
	if m.dvfsOn && m.freqIdx[c] < nominal {
		// Downclocked occupancy — the DVFS counterpart of
		// haltedTicks: ticks an occupied CPU actually ran below the
		// nominal frequency. The busy branch excludes throttle-
		// halted ticks, which haltedTicks already counts — the two
		// enforcement signatures partition the time instead of
		// overlapping.
		m.downTicks[c] += dt
	}
	d := &m.dispatches[c]
	task := d.task
	if task.st.WarmupLeft > 0 {
		task.st.WarmupLeft -= fdt
	}
	task.work.TickInto(tickRes, speed, fdt)
	if m.govPeriod > 0 {
		m.addBusy(c, dt, fdt)
	}
	m.banks[c].AccumulateFrom(&tickRes.Counts)
	d.counts.Accum(&tickRes.Counts)
	d.ranMS += fdt

	// The P-state's energy factor: event counts already shrank by
	// f/f_max through the execution speed, so scaling each count's
	// energy by (V/V_max)² realizes the full f·V² dynamic-power
	// law. 1 when DVFS is off or the CPU is at the nominal state.
	ps := 1.0
	if m.dvfsOn {
		ps = m.powScale[c]
	}
	task.st.SliceLeft -= fdt
	m.p6work[c] = speed * fdt

	trueJ := m.Model.EnergyJExact(tickRes.Exact, 0) * ps
	m.truePower[c] = trueJ * 1000 / fdt
	m.p6true[c] = trueJ
	if m.unitPowerW != nil {
		ue := units.SplitExact(m.Model.Weights, tickRes.Exact)
		for u := range ue {
			ue[u] = ue[u] * ps * 1000 / fdt
		}
		m.unitPowerW[c] = ue
	}
	estJ := m.Est.EnergyJExact(tickRes.Exact, 0) * ps
	// Within a quantum the event rates are constant, so the sign of
	// the per-event estimation error is too: |est−true| integrated
	// per quantum equals the per-millisecond integral, keeping the
	// metric partition-invariant across engines.
	m.p6err[c] = math.Abs(estJ - trueJ)
	m.Sched.Power[c].AddEnergyWeighted(estJ, fdt, quantW)
	if m.dvfsOn {
		// The kernel knows its own P-state residency, so per-
		// dispatch profile energy accumulates frequency-scaled
		// exact estimates (integer counter deltas cannot be
		// rescaled after the fact once states changed mid-slice).
		d.estJ += estJ
		if ps != 1 {
			d.scaled = true
		}
		if task.st.Units != nil {
			ue := units.SplitExact(m.Est.Weights, tickRes.Exact)
			for u := range ue {
				d.estUnitsJ[u] += ue[u] * ps
			}
		}
	}

	switch tickRes.Status {
	case workload.Finished:
		m.p6stat[c] = p6Finish
	case workload.Blocked:
		m.p6stat[c] = p6Block
		m.p6block[c] = tickRes.BlockMS
	default:
		m.p6stat[c] = p6Run
	}
}

// execCommitCPU applies CPU c's staged piece, which ends at endMS: the
// global accumulators fold its terms, and a finish, block or slice
// expiry runs with its trace events.
func (m *Machine) execCommitCPU(c int, endMS int64) {
	stat := m.p6stat[c]
	m.p6stat[c] = 0
	if stat == p6Idle {
		m.TrueEnergyJ += m.p6true[c]
		return
	}
	m.WorkDoneMS += m.p6work[c]
	m.TrueEnergyJ += m.p6true[c]
	m.EstimationErrJ += m.p6err[c]
	cpu := topology.CPUID(c)
	task := m.dispatches[c].task
	switch stat {
	case p6Finish:
		m.finishTask(cpu, task, endMS)
	case p6Block:
		m.blockTask(cpu, task, m.p6block[c], endMS)
	default:
		if task.st.SliceLeft <= 0 {
			m.endTimeslice(cpu, endMS)
		}
	}
}

// thermalStep runs the phase-7 thermal integration over the step's
// cores and raises the peak temperature to the hottest core's at the
// quantum's end.
// Every core's power is summed before any node steps, because a core's
// coupled effective power reads its chip neighbours' powers. A package
// that local events settled inside the quantum (window.go) integrates
// its cores and unit hotspots from its own clock; the others take
// decay, the shared retention over fdt (0: each node's own).
func (m *Machine) thermalStep(dt int64, fdt, decay float64) {
	perPkg := m.Cfg.Layout.Cores()
	cores := m.stepCoreList()
	for _, core32 := range cores {
		core := int(core32)
		sum := 0.0
		for _, c := range m.Topo.CPUsOfCore(core) {
			sum += m.truePower[int(c)]
		}
		m.corePower[core] = sum
	}
	for _, core32 := range cores {
		core := int(core32)
		eff := m.coupledEffPower(m.corePower, core)
		start := m.nodes[core].TempC
		n := dt // the ticks left to integrate
		if from := m.pkgClockOf(core / perPkg); from > m.qStartMS {
			n = m.nowMS + 1 - from
			if n == 0 {
				continue // settled through the end tick by a pop there
			}
			m.nodes[core].Step(eff, float64(n))
		} else if decay > 0 {
			m.nodes[core].StepDecay(eff, decay)
		} else {
			m.nodes[core].Step(eff, fdt)
		}
		// Within a constant-power quantum the RC response is monotone,
		// so checking the endpoint captures the quantum's extremum.
		if m.nodes[core].TempC > m.peakTempC {
			m.peakTempC = m.nodes[core].TempC
		}
		if m.unitNodes == nil || n == 0 {
			continue
		}
		if dt == 1 {
			// The lockstep path: hotspots ride on the core temperature
			// just stepped.
			ref := m.nodes[core].TempC
			for u, un := range m.unitNodes[core] {
				un.StepOver(m.coreUnitW(core, u), 1, ref)
			}
			continue
		}
		m.stepUnits(core, n, start, eff)
	}
}

// coreUnitW is core's unit-u true power over the current pieces of its
// CPUs: their held per-unit powers summed in CPU order, as the lockstep
// sweep folds them.
func (m *Machine) coreUnitW(core, u int) float64 {
	sum := 0.0
	for _, c := range m.Topo.CPUsOfCore(core) {
		sum += m.unitPowerW[int(c)][u]
	}
	return sum
}

// stepUnits integrates core's unit hotspots over n ms of constant power
// (coreUnitW) in closed form against the core node relaxing from startC
// at effective power eff: the equivalent of n per-ms StepOver calls
// against the core's per-ms temperatures.
func (m *Machine) stepUnits(core int, n int64, startC, eff float64) {
	props := m.nodes[core].Props
	steady, decay := props.SteadyTemp(eff), props.DecayPerMS()
	for u, un := range m.unitNodes[core] {
		un.StepOverBatched(m.coreUnitW(core, u), n, startC, steady, decay)
	}
}

// startDispatch begins task ts's occupancy of a CPU: fresh timeslice,
// fresh accounting.
func (m *Machine) startDispatch(cpu topology.CPUID, ts *taskState, atMS int64) {
	t := ts.st
	d := &m.dispatches[int(cpu)]
	d.task = ts
	d.counts = counters.Counts{}
	d.ranMS = 0
	d.estJ = 0
	d.estUnitsJ = units.Energies{}
	d.scaled = false
	t.SliceLeft = t.Timeslice()
	m.emit(trace.Event{TimeMS: atMS, Kind: trace.Dispatch, TaskID: t.ID, CPU: int(cpu), From: -1})
}

// finalizeDispatch ends the accounting of the task occupying cpu: the
// estimator converts the accumulated counter delta into energy (Eq. 1),
// which updates the task's energy profile over the actual period the
// task ran (§3.3). The first completed slice of a task is recorded in
// the placement table (§4.6).
func (m *Machine) finalizeDispatch(cpu topology.CPUID) {
	d := &m.dispatches[int(cpu)]
	if d.task == nil || d.ranMS <= 0 {
		d.task = nil
		return
	}
	energyJ := m.Est.EnergyJ(d.counts, 0)
	if d.scaled {
		// Counter deltas cannot be rescaled after a mid-dispatch
		// P-state change; use the per-quantum scaled accumulation.
		// Dispatches that never left the nominal state keep the
		// integer-counter path, bit-identical to a DVFS-less machine.
		energyJ = d.estJ
	}
	d.task.st.Profile.AddSample(energyJ, d.ranMS)
	if d.task.st.Units != nil {
		ue := units.Split(m.Est.Weights, d.counts)
		if d.scaled {
			// Same reason as energyJ above: the per-quantum scaled
			// accumulation is the only record of which P-state each
			// unit-energy share was produced at.
			ue = d.estUnitsJ
		}
		d.task.st.Units.AddSample(ue, d.ranMS)
	}
	if !d.task.firstSliceDone {
		d.task.firstSliceDone = true
		m.Sched.RecordFirstSlice(d.task.st, energyJ/(d.ranMS/1000))
	}
	d.task = nil
	d.counts = counters.Counts{}
	d.ranMS = 0
	d.estJ = 0
	d.estUnitsJ = units.Energies{}
	d.scaled = false
}

// endTimeslice rotates the running task to the tail of its queue.
func (m *Machine) endTimeslice(cpu topology.CPUID, atMS int64) {
	if cur := m.Sched.RQ(cpu).Current; cur != nil {
		m.emit(trace.Event{TimeMS: atMS, Kind: trace.SliceEnd, TaskID: cur.ID, CPU: int(cpu), From: -1})
	}
	prev := m.dispatches[int(cpu)].task
	m.finalizeDispatch(cpu)
	rq := m.Sched.RQ(cpu)
	rq.Deschedule(true)
	if t := rq.PickNext(); t != nil {
		if prev == nil || prev.st != t {
			prev = m.tasks[t.ID] // another task: look it up
		}
		m.startDispatch(cpu, prev, atMS)
	} else {
		m.parkDirty = true
	}
}

// blockTask moves the running task to the sleep list.
func (m *Machine) blockTask(cpu topology.CPUID, ts *taskState, blockMS float64, atMS int64) {
	m.emit(trace.Event{TimeMS: atMS, Kind: trace.Block, TaskID: ts.st.ID, CPU: int(cpu), From: -1})
	m.finalizeDispatch(cpu)
	rq := m.Sched.RQ(cpu)
	rq.Deschedule(false)
	ts.sleeping = true
	ts.wakeAtMS = atMS + int64(blockMS)
	m.sleepers = append(m.sleepers, ts)
	if t := rq.PickNext(); t != nil {
		m.startDispatch(cpu, m.tasks[t.ID], atMS)
	} else {
		m.parkDirty = true
	}
}

// finishTask retires a completed task and, if configured, respawns a
// fresh instance of its program to keep the offered load constant.
func (m *Machine) finishTask(cpu topology.CPUID, ts *taskState, atMS int64) {
	m.emit(trace.Event{TimeMS: atMS, Kind: trace.Finish, TaskID: ts.st.ID, CPU: int(cpu), From: -1, Detail: ts.prog.Name})
	m.finalizeDispatch(cpu)
	rq := m.Sched.RQ(cpu)
	rq.Deschedule(false)
	delete(m.tasks, ts.st.ID)
	m.Completions++
	m.CompletionsByProg[ts.prog.Name]++
	if t := rq.PickNext(); t != nil {
		m.startDispatch(cpu, m.tasks[t.ID], atMS)
	} else {
		m.parkDirty = true
	}
	if m.Cfg.RespawnFinished {
		// Deferred to the end of the execution sweep (step phase 6→7
		// boundary): placement must read trackers that are uniformly
		// current, not a mid-sweep mixture (see respawnQ).
		m.respawnQ = append(m.respawnQ, ts.prog)
	}
}
