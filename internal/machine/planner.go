package machine

import (
	"math"

	"energysched/internal/profile"
	"energysched/internal/sched"
	"energysched/internal/thermal"
	"energysched/internal/topology"
)

// The async engine's quantum planner.
//
// Instead of simulating every millisecond, the async engine computes —
// inside each shared step — the largest quantum dt over which the
// machine state is provably constant, and lets the step integrate the
// whole quantum at once. A quantum may not span:
//
//   - a sleeper's wake-up (tasks join runqueues at wake instants),
//   - a running task's timeslice expiry, block point, or completion
//     (execution state changes at the end of the crossing millisecond),
//   - a running task's phase or noise-epoch boundary (event rates — and
//     with them power — change; the crossing millisecond is isolated
//     into its own 1 ms quantum so power stays constant per quantum),
//   - the end of a migration's cache-warmup penalty (speed changes),
//   - a balance, idle-pull, or monitor deadline (periodic work runs on
//     the quantum's last tick, exactly on schedule),
//   - a hot-check deadline whose check could act: §4.5 hot migration
//     needs a single-task CPU on a core whose thermal sum has reached
//     its trigger, and that sum follows the same closed-form curve as
//     a throttle metric, so checks that provably find it below the
//     trigger fall inside the quantum and are skipped,
//   - a predicted throttle flip: while inputs are constant, the
//     thermal-power metric follows a geometric curve, so the
//     millisecond at which a throttle would engage or disengage is
//     solved in closed form and the quantum stops one millisecond
//     short — the flip itself is then decided on a 1 ms quantum,
//     bit-for-bit like lockstep,
//   - MaxQuantumMS.
//
// Within such a quantum every substrate is exactly integrable: the
// workload's counts are linear in executed time (and its stochastic
// processes are indexed by progress, not ticks), the RC thermal step is
// closed-form, and the variable-period exponential average composes one
// dt-update identically to dt unit updates. Batching milliseconds into
// a quantum is therefore exact up to floating-point rounding, not an
// approximation — the cross-engine tests assert identical completions,
// migrations, and throttle decisions against the lockstep engine.

// planQuantum returns the largest safe quantum dt in [1, limit] for the
// current machine state. It runs after dispatch, throttle engagement,
// and speed assignment, so m.execSpeed (0 for halted or idle CPUs)
// describes the quantum about to execute.
func (m *Machine) planQuantum(limit int64) int64 {
	dt := limit
	now := m.nowMS
	clamp := func(v int64) {
		if v < dt {
			if v < 1 {
				v = 1
			}
			dt = v
		}
	}

	// Metric sampling boundary: the quantum must end exactly on the
	// next multiple of the monitor period.
	if p := int64(m.Cfg.MonitorPeriodMS); p > 0 {
		if r := now % p; r == 0 {
			clamp(1)
		} else {
			clamp(p - r + 1)
		}
	}

	// Fault-injection horizons: the residual-window boundary is an
	// end-of-tick event like a monitor sample, and the next weight
	// drift a start-of-tick event like a wake-up. Both must bound the
	// quantum even on an otherwise event-free machine (where the cap is
	// effectively unbounded).
	if m.faults != nil {
		if p := m.recalPeriod; p > 0 {
			if r := now % p; r == 0 {
				clamp(1)
			} else {
				clamp(p - r + 1)
			}
		}
		if d := m.faults.NextDriftMS(); d >= 0 {
			clamp(d - now)
		}
	}

	// Earliest sleeper wake-up (a start-of-tick event: the quantum must
	// end before it).
	if w := m.earliestWake(); w != sched.NoDeadline {
		clamp(w - now)
	}

	// Pending P-state transitions are start-of-tick events: the
	// quantum must end before the new frequency takes effect, so every
	// quantum runs at exactly one operating point per CPU.
	if m.dvfsOn && m.nPending > 0 {
		for c := range m.pendingIdx {
			if m.pendingIdx[c] >= 0 {
				clamp(m.pendingAt[c] - now)
			}
		}
	}

	// §2.3 task throttling rotates runqueue heads every millisecond
	// while a throttle is engaged; degrade to lockstep for those spans.
	if m.Cfg.TaskThrottling && m.anyThrottleEngaged() {
		return 1
	}

	// Periodic deadlines next — each a single O(1) query, and on a
	// saturated machine with tasks queued some CPU's staggered balance
	// pass is due every tick, pinning dt to 1 before the per-CPU
	// horizon scan below even starts (the scan can only lower dt, and 1
	// is the floor). Hot checks resolve in two steps. A check due on
	// the first tick that could act pins dt to 1 here too: once a
	// saturated machine's cores are past their triggers, one is due on
	// nearly every tick. The grid walk over the rest of the quantum
	// waits until the running-task horizons have shortened it.
	dt, hot := m.clampDeadlines(dt, now)
	if dt <= 1 {
		return 1
	}
	if hot == now {
		if m.hotCheckDue(now, 1) {
			return 1
		}
		hot++
	}

	// Running-task horizons: timeslice expiry, warmup end, and the
	// workload's rate/stop crossings. Parked and idle CPUs contribute
	// nothing (no Current task).
	for _, c32 := range m.stepCPUs() {
		c := int(c32)
		rq := m.Sched.RQs[c]
		cur := rq.Current
		if cur == nil {
			continue
		}
		clamp(ceilToInt64(cur.SliceLeft))
		if cur.WarmupLeft > 0 {
			clamp(ceilToInt64(cur.WarmupLeft))
		}
		if speed := m.execSpeed[c]; speed > 0 {
			work := m.dispatches[c].task.work
			if rh := work.RateHorizonMS(); !math.IsInf(rh, 1) {
				// Rates change inside the crossing millisecond;
				// isolate it so quantum power is exactly constant.
				clamp(int64(math.Floor(rh / speed)))
			}
			if sh := work.StopHorizonMS(); !math.IsInf(sh, 1) {
				// Block/finish take effect at the end of the
				// crossing millisecond.
				clamp(ceilToInt64(sh / speed))
			}
		}
	}

	if hot-now < dt {
		dt = m.clampHotChecks(dt, now, hot)
	}
	if dt > 1 && m.throttles != nil {
		dt = m.clampThrottleCrossings(dt)
	}
	if dt > 1 && m.unitThrottles != nil {
		dt = m.clampUnitCrossings(dt)
	}
	if dt < 1 {
		dt = 1
	}
	return dt
}

// clampDeadlines bounds a quantum by the periodic deadline classes, a
// single O(1) query per class on the deadline scheduler instead of the
// former per-CPU modulo sweep. With zero waiting tasks machine-wide,
// every balancing pass — periodic and idle pull alike — is provably a
// no-op and both classes are skipped entirely: the big win for
// idle-heavy workloads. Governor deadlines are armed only for occupied
// CPUs, so other CPUs' instants never reach the planner. Hot-check
// deadlines are armed only for single-task CPUs with a power budget
// while hot migration is on, but an armed check still acts only once
// its core has reached the trigger, so the earliest armed hot deadline
// (NoDeadline when none) is returned unclamped for planQuantum to
// resolve. The query runs on every plan, so the heap's lazy re-arms
// keep it bounded.
func (m *Machine) clampDeadlines(dt, now int64) (int64, int64) {
	clamp := func(v int64) {
		if v < dt {
			if v < 1 {
				v = 1
			}
			dt = v
		}
	}
	if m.Sched.QueuedCount() > 0 {
		if d := m.wheel.NextBalanceDeadline(now); d != sched.NoDeadline {
			clamp(d - now + 1)
		}
		if m.Sched.IdleCPUCount() > 0 {
			clamp(m.wheel.NextIdlePullDeadline(now) - now + 1)
		}
	}
	if m.dvfsOn && m.govPeriod > 0 {
		if d := m.wheel.NextGovDeadline(now); d != sched.NoDeadline {
			clamp(d - now + 1)
		}
	}
	return dt, m.wheel.NextHotDeadline(now)
}

// clampHotChecks ends the quantum at the first hot-check instant whose
// check could act. It walks the static hot grid from hot, the earliest
// armed hot deadline, to the quantum's last tick; a CPU due at the
// quantum's k-th tick stops the walk when hotCheckCouldAct says its
// check might migrate. Every check it steps past is a provable no-op,
// so phase 8 firing only at the end tick still decides exactly as the
// lockstep loop does.
func (m *Machine) clampHotChecks(dt, now, hot int64) int64 {
	for t := hot; t-now < dt; t++ {
		if m.hotCheckDue(t, t-now+1) {
			return t - now + 1
		}
	}
	return dt
}

// hotCheckDue reports whether any CPU whose hot check is due at t, the
// quantum's k-th tick, could act there.
func (m *Machine) hotCheckDue(t, k int64) bool {
	for _, c := range m.wheel.HotDueCPUs(t) {
		if m.hotCheckCouldAct(int(c), k) {
			return true
		}
	}
	return false
}

// hotCheckCouldAct reports whether CPU c's hot check, run after k
// milliseconds of the coming quantum, might pass sched.HotCheck's
// gates: a single running task, a core power budget, and the core's
// thermal sum at or above the trigger. Within the quantum each CPU of
// the core feeds its metric a constant sample, so the sum follows
// S(k) = X + (S0 − X)·q^k (see clampThrottleCrossings). A parked
// sibling's metric is not settled, and reading it would settle it, so
// such a core always counts as able to act.
func (m *Machine) hotCheckCouldAct(c int, k int64) bool {
	rq := m.Sched.RQs[c]
	if rq.Current == nil || rq.Len() != 1 {
		return false
	}
	trigger, ok := m.Sched.HotTriggerW(topology.CPUID(c))
	if !ok {
		return false
	}
	cpus := m.Topo.CPUsOfCore(int(m.Topo.CoreOf[c]))
	s0 := 0.0
	for _, d := range cpus {
		if m.cpuParked(int(d)) {
			return true
		}
		s0 += m.Sched.Power[d].ThermalPower()
	}
	if s0 >= trigger {
		return true // already triggered; skip the feed estimates
	}
	x := 0.0
	for _, d := range cpus {
		x += m.metricFeedW(int(d))
	}
	return hotSumMayReach(s0, x, m.Sched.Power[c].RetentionPerMS(), trigger, k)
}

// hotTriggerSlackRel lowers the hot trigger for the planner's
// prediction. The engines fold a quantum's metric in one update, or in
// per-millisecond ones, and differ from the closed form by a few ulps;
// this relative margin (far above that drift) keeps the prediction on
// the safe side.
const hotTriggerSlackRel = 1e-9

// hotSumMayReach reports whether a core thermal sum starting at s0 and
// relaxing toward x with per-millisecond retention may reach trigger
// within k milliseconds. It errs toward true: the threshold is lowered
// by hotTriggerSlackRel, and the predicted crossing gets one millisecond
// of slack.
func hotSumMayReach(s0, x, retain, trigger float64, k int64) bool {
	n, ok := profile.CrossSteps(s0, x, retain, trigger-hotTriggerSlackRel*math.Abs(trigger), true)
	return ok && n-1 <= k
}

// anyThrottleEngaged reports whether any throttle (scalar or unit) is
// currently engaged.
func (m *Machine) anyThrottleEngaged() bool {
	for _, th := range m.throttles {
		if th.Engaged() {
			return true
		}
	}
	for _, th := range m.unitThrottles {
		if th.Engaged() {
			return true
		}
	}
	return false
}

// metricFeed fills m.xbarScratch with the constant per-millisecond
// sample (in Watts) each CPU will feed its thermal-power metric for the
// duration of the quantum: the running task's estimated power at the
// current rates and speed, or the idle share when halted or idle.
func (m *Machine) metricFeed() []float64 {
	for c := range m.xbarScratch {
		m.xbarScratch[c] = m.metricFeedW(c)
	}
	return m.xbarScratch
}

// metricFeedW is CPU c's constant per-millisecond metric sample this
// quantum: estRatePowerW, or the idle share when halted or idle.
func (m *Machine) metricFeedW(c int) float64 {
	if x := m.estRatePowerW(c); x > 0 {
		return x
	}
	return m.estIdleW
}

// estRatePowerW returns CPU c's instantaneous estimated power this
// quantum — the running task's event rates through the estimator
// weights at the actual execution speed, voltage-scaled under DVFS
// (the (V/V_max)² share of the f·V² law; counts already shrank by
// f/f_max through the speed). 0 when the CPU is halted or idle. Shared
// by the thermal-power metric feed and the governors' fast InstPowerW
// signal, which must stay the same quantity.
func (m *Machine) estRatePowerW(c int) float64 {
	speed := m.execSpeed[c]
	if speed <= 0 {
		return 0
	}
	x := m.Est.RateWatts(m.dispatches[c].task.work.EffectiveRates()) * speed
	if m.dvfsOn {
		x *= m.powScale[c]
	}
	return x
}

// clampThrottleCrossings bounds the quantum by the predicted throttle
// decision flips. While each member CPU feeds a constant sample x, the
// group's summed metric follows S(n) = X + (S0 − X)·q^n exactly, so the
// first millisecond at which the engage/disengage condition changes is
// solved in closed form; the quantum stops one millisecond short of it
// and the flip is decided on 1 ms quanta, identically to lockstep.
func (m *Machine) clampThrottleCrossings(dt int64) int64 {
	xbar := m.metricFeed()
	for i, th := range m.throttles {
		if th.LimitW <= 0 {
			continue
		}
		members := m.throttleMembers[i]
		s0, x := 0.0, 0.0
		for _, cpu := range members {
			s0 += m.Sched.Power[int(cpu)].ThermalPower()
			x += xbar[int(cpu)]
		}
		retain := m.Sched.Power[int(members[0])].RetentionPerMS()
		var n int64
		var ok bool
		if th.Engaged() {
			n, ok = profile.CrossSteps(s0, x, retain, th.LimitW-thermal.Hysteresis, false)
		} else {
			n, ok = profile.CrossSteps(s0, x, retain, th.LimitW, true)
		}
		if !ok {
			continue
		}
		if n--; n < 1 {
			n = 1
		}
		if n < dt {
			dt = n
		}
	}
	return dt
}

// clampUnitCrossings bounds the quantum so that no unit-temperature
// throttle decision can flip inside a quantum. The bound is derived
// from the machine state rather than a fixed envelope: within the
// quantum the core's power is exactly the current rates at the current
// speeds, so the core reference stays between its start temperature and
// the corresponding steady point, and a hotspot's per-millisecond move
// toward a threshold is at most (1 − a)·gap where a is its per-ms
// retention and gap its distance to the extreme reachable target
// (reference bound + R·core power for rises, reference bound for
// falls). A 2× safety factor absorbs the shrinking-gap conservatism;
// near a threshold the quanta collapse to 1 ms, where decisions are
// made exactly as in lockstep.
func (m *Machine) clampUnitCrossings(dt int64) int64 {
	layout := m.Cfg.Layout
	threads := layout.ThreadsPerPackage
	// Per-core raw true power of the coming quantum (rates and speeds
	// are constant within it). m.corePower is free as scratch here: the
	// thermal phase recomputes it after execution.
	raw := m.corePower
	for core := range m.nodes {
		sum := 0.0
		for t := 0; t < threads; t++ {
			c := int(layout.CPUOfCore(core, t))
			if speed := m.execSpeed[c]; speed > 0 {
				p := m.Model.ExecPower(m.dispatches[c].task.work.EffectiveRates()) * speed
				if m.dvfsOn {
					p *= m.powScale[c]
				}
				sum += p
			} else {
				sum += m.idleShareW
			}
		}
		raw[core] = sum
	}
	clamp := func(margin, gap, onePerMS float64) {
		if gap <= 0 {
			return // cannot move toward the threshold
		}
		n := int64(margin / (onePerMS * gap) / 2)
		if n < 1 {
			n = 1
		}
		if n < dt {
			dt = n
		}
	}
	cores := layout.Cores()
	for core, th := range m.unitThrottles {
		if th.LimitW <= 0 {
			continue
		}
		if m.pkgParked[core/cores] {
			continue // parked: unit temperatures falling below limit
		}
		eff := m.coupledEffPower(raw, core)
		node := m.nodes[core]
		refHi := math.Max(node.TempC, node.Props.SteadyTemp(eff))
		refLo := math.Min(node.TempC, node.Props.SteadyTemp(eff))
		onePerMS := 1 - m.unitNodes[core][0].Props.DecayPerMS()
		if th.Engaged() {
			// The flip (disengage) requires the hottest unit itself to
			// fall below limit − hysteresis; bound its fastest fall.
			var hot *thermal.Node
			for _, n := range m.unitNodes[core] {
				if hot == nil || n.TempC > hot.TempC {
					hot = n
				}
			}
			margin := hot.TempC - (th.LimitW - thermal.Hysteresis)
			if margin < 0 {
				margin = 0
			}
			clamp(margin, hot.TempC-refLo, onePerMS)
		} else {
			// The flip (engage) happens when any unit rises to the
			// limit; bound each unit's fastest rise. A unit's power is
			// at most its core's raw power.
			for _, n := range m.unitNodes[core] {
				margin := th.LimitW - n.TempC
				if margin < 0 {
					margin = 0
				}
				clamp(margin, refHi+unitR*raw[core]-n.TempC, onePerMS)
			}
		}
	}
	return dt
}

func ceilToInt64(v float64) int64 { return int64(math.Ceil(v)) }
