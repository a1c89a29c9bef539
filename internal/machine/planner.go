package machine

import (
	"fmt"
	"math"

	"energysched/internal/dvfs"
	"energysched/internal/profile"
	"energysched/internal/sched"
	"energysched/internal/thermal"
	"energysched/internal/topology"
)

// The async engine's quantum planner.
//
// Instead of simulating every millisecond, the async engine computes —
// inside each shared step — the largest quantum dt over which every
// decision that reads across CPUs provably holds, and lets the step
// integrate the whole quantum at once. A quantum may not span:
//
//   - a sleeper's wake-up (tasks join runqueues at wake instants),
//   - a running task's completion (its respawn is placed across CPUs),
//     its block point while a task is queued somewhere or an SMT
//     sibling executes (execution state changes at the end of the
//     crossing millisecond), or a timeslice expiry that dispatches
//     another queued task,
//   - the end of a migration's cache-warmup penalty (speed changes),
//   - a balance, idle-pull, or monitor deadline (periodic work runs on
//     the quantum's last tick, exactly on schedule),
//   - a hot-check deadline whose check could act: §4.5 hot migration
//     needs a single-task CPU on a core whose thermal sum has reached
//     its trigger, and some other core at least HotDestGapW cooler.
//     The source sum follows the same closed-form curve as a throttle
//     metric, and every other core's sum has a floor through the
//     quantum, so checks that provably find their core below the
//     trigger, or no core cool enough, fall inside the quantum and are
//     skipped,
//   - a pending P-state transition (the new frequency applies at the
//     start of its tick), an ondemand governor evaluation (it reads the
//     utilization, which changes across the quantum), and a thermal
//     governor evaluation that could change the P-state: the thermal
//     governor reads the metric only through its down threshold, so an
//     evaluation whose decision is the current state on both sides of
//     it, or on the side where the metric's closed-form curve provably
//     stays, falls inside the quantum and is skipped (its
//     utilization-window restart is replayed by phase 6),
//   - a predicted throttle flip: while inputs are constant, the
//     thermal-power metric follows a geometric curve, so the
//     millisecond at which a throttle would engage or disengage is
//     solved in closed form and the quantum stops one millisecond
//     short — the flip itself is then decided on a 1 ms quantum,
//     bit-for-bit like lockstep,
//   - MaxQuantumMS, when set.
//
// A busy CPU's timeslice expiry that re-dispatches the same task, its
// task's phase or noise-epoch boundaries (event rates — and with them
// power — change), and a block while nothing is queued and no SMT
// sibling executes (a local stop) are local events: inside the
// quantum, a *window*, each busy CPU runs on its own clock through
// them, the crossing millisecond as a one-tick piece of its own, so
// power stays constant per piece (window.go). A rate change or a stop
// moves the metric feed the hot-check, governor and throttle
// predictions read, and the true power the unit-temperature horizon
// reads, so it re-checks them and may end the window earlier; a stop
// also ends it before its sleeper's wake. The hot walk goes only to the
// earliest local stop still pending and is extended as the window's
// pops pass it.
//
// The predictions read each busy CPU's feed from a per-piece cache
// (feedW, read from the rates once per piece, on its first use; see
// window.go). The hot checks' destination side first tries one
// window-end pre-test per check, whose powers of the retention are
// taken once per plan (shutThrough); only a check it leaves open pays
// the per-tick test, whose floor factor the CPUs due on one tick share.
//
// Within such a quantum every substrate is exactly integrable: the
// workload's counts are linear in executed time (and its stochastic
// processes are indexed by progress, not ticks), the RC thermal step is
// closed-form, and the variable-period exponential average composes one
// dt-update identically to dt unit updates. Batching milliseconds into
// a quantum is therefore exact up to floating-point rounding, not an
// approximation — the cross-engine tests assert identical completions,
// migrations, and throttle decisions against the lockstep engine.

// quantumPlan is planQuantum's running bound: the quantum length so
// far and the horizon that set it.
type quantumPlan struct {
	dt  int64
	why Horizon
}

// clamp lowers the quantum to v (at least 1) if v is shorter; the first
// horizon to reach the final length is the one that binds.
func (p *quantumPlan) clamp(v int64, why Horizon) {
	if v < 1 {
		v = 1
	}
	if v < p.dt {
		p.dt, p.why = v, why
	}
}

// planQuantum returns the largest safe quantum dt in [1, limit] for the
// current machine state, and the horizon that bound it. It runs after
// dispatch, throttle engagement, and speed assignment, so m.execSpeed
// (0 for halted or idle CPUs) describes the quantum about to execute.
func (m *Machine) planQuantum(limit int64) (int64, Horizon) {
	p := quantumPlan{dt: limit, why: HorizonLimit}
	now := m.nowMS

	// Metric sampling boundary: the quantum must end exactly on the
	// next multiple of the monitor period.
	if per := int64(m.Cfg.MonitorPeriodMS); per > 0 {
		if r := now % per; r == 0 {
			p.clamp(1, HorizonMonitor)
		} else {
			p.clamp(per-r+1, HorizonMonitor)
		}
	}

	// Fault-injection horizons: the residual-window boundary is an
	// end-of-tick event like a monitor sample, and the next weight
	// drift a start-of-tick event like a wake-up. Both must bound the
	// quantum even on an otherwise event-free machine (where the cap is
	// effectively unbounded).
	if m.faults != nil {
		if per := m.recalPeriod; per > 0 {
			if r := now % per; r == 0 {
				p.clamp(1, HorizonFaults)
			} else {
				p.clamp(per-r+1, HorizonFaults)
			}
		}
		if d := m.faults.NextDriftMS(); d >= 0 {
			p.clamp(d-now, HorizonFaults)
		}
	}

	// Earliest sleeper wake-up (a start-of-tick event: the quantum must
	// end before it).
	if w := m.earliestWake(); w != sched.NoDeadline {
		p.clamp(w-now, HorizonWake)
	}

	// Pending P-state transitions are start-of-tick events: the
	// quantum must end before the new frequency takes effect, so every
	// quantum runs at exactly one operating point per CPU.
	if m.dvfsOn && m.nPending > 0 {
		for c := range m.pendingIdx {
			if m.pendingIdx[c] >= 0 {
				p.clamp(m.pendingAt[c]-now, HorizonPState)
			}
		}
	}

	// §2.3 task throttling rotates runqueue heads every millisecond
	// while a throttle is engaged; degrade to lockstep for those spans.
	if m.Cfg.TaskThrottling && m.anyThrottleEngaged() {
		return 1, HorizonTaskThrottle
	}

	// Periodic deadlines next — a single query per class, and on a
	// saturated machine with tasks queued some CPU's staggered balance
	// pass is due every tick, pinning dt to 1 before the per-CPU
	// horizon scan below even starts (the scan can only lower dt, and 1
	// is the floor). Thermal-governor evaluations and hot checks
	// resolve last, once the running-task horizons have shortened the
	// quantum: the governor by one solve per occupied CPU, the hot
	// checks by a grid walk (once a saturated machine's cores are past
	// their triggers a hot check is due on nearly every tick, and its
	// walk builds destination bounds).
	hot := m.clampDeadlines(&p, now)
	if p.dt <= 1 {
		return 1, p.why
	}

	// Running-task horizons: timeslice expiry, warmup end, and the
	// workload's rate/stop crossings (startPiece). Parked, idle and
	// halted CPUs contribute nothing: they execute nothing. In a window
	// (window.go) the slice expiries that re-dispatch the same task and
	// the rate crossings are local events: each CPU's first one goes on
	// the local heap instead of ending the quantum.
	m.local.reset()
	m.winEnd, m.winWhy = now+p.dt-1, p.why
	m.feedsCached = true
	m.anyStop = false
	for _, c32 := range m.stepCPUs() {
		m.startPiece(int(c32), now, m.throttleScratch, false)
	}
	p.dt, p.why = m.winEnd-now+1, m.winWhy

	// The closed-form throttle horizons, before the grid walks: those
	// walk tick by tick, so they should cover no tick a throttle flip
	// already rules out of the quantum.
	if p.dt > 1 && m.throttles != nil {
		p.clamp(m.clampThrottleCrossings(p.dt), HorizonThrottle)
	}
	if p.dt > 1 && m.unitThrottles != nil {
		p.clamp(m.clampUnitCrossings(p.dt), HorizonUnit)
	}
	if p.dt > 1 && m.govThermal() {
		m.clampGovEvals(&p, now)
	}
	// The hot walk, to the earliest local stop: a wake the stop draws
	// may end the window there, and runWindow extends the walk as its
	// pops pass it. Also on a 1 ms quantum: the floor a due check
	// builds lets phase 8 skip the end-tick checks it rules out.
	m.winEnd, m.winWhy = now+p.dt-1, p.why
	m.hotWalked = hot - 1
	m.walkHotChecks(m.nextStop(now))
	return m.winEnd - now + 1, m.winWhy
}

// rateHorizonMS is the number of whole milliseconds a running task
// keeps its event rates at execution speed speed, rh being its
// RateHorizonMS in progress milliseconds. Rates change inside the
// crossing millisecond, which the floor leaves out of the piece: it
// runs as a one-tick piece of its own (eagerTick), so within every
// longer piece the CPU feeds its metric one constant sample.
func rateHorizonMS(rh, speed float64) int64 { return int64(math.Floor(rh / speed)) }

// clampDeadlines bounds a quantum by the periodic deadline classes, a
// single query per class on the deadline grid instead of a per-CPU
// modulo sweep. With zero waiting tasks machine-wide, every balancing
// pass — periodic and idle pull alike — is provably a no-op and both
// classes are skipped entirely: the big win for idle-heavy workloads.
// The thermal governor's evaluations act only when the metric's side
// of its threshold or the instantaneous power calls for another
// P-state, so under it planQuantum solves each occupied CPU's first
// evaluation that could act (clampGovEvals); any other governor reads
// the utilization, which changes across the quantum, and clamps here
// at firstGovDeadline. A hot check acts only if its core has reached
// the trigger and some other core is considerably cooler, so the
// earliest hot deadline that passes HotCheck's first guard is returned
// unclamped (firstHotDeadline) for walkHotChecks to walk from.
func (m *Machine) clampDeadlines(p *quantumPlan, now int64) (hot int64) {
	if m.Sched.QueuedCount() > 0 {
		if d := m.wheel.NextBalanceDeadline(now); d != sched.NoDeadline {
			p.clamp(d-now+1, HorizonBalance)
		}
		if m.Sched.IdleCPUCount() > 0 {
			p.clamp(m.wheel.NextIdlePullDeadline(now)-now+1, HorizonBalance)
		}
	}
	if m.dvfsOn && m.govPeriod > 0 && !m.govThermal() {
		if d := m.firstGovDeadline(now); d != sched.NoDeadline {
			p.clamp(d-now+1, HorizonGovernor)
		}
	}
	return m.firstHotDeadline(now)
}

// firstHotDeadline returns the earliest hot-check instant ≥ now of a
// CPU that passes sched.HotCheck's first guard — a single running task
// and a power budget, while hot migration is on — or NoDeadline when
// none does. Such a CPU is occupied, and occupied CPUs are never
// parked, so the step list holds every candidate.
func (m *Machine) firstHotDeadline(now int64) int64 {
	d := sched.NoDeadline
	if !m.Sched.Cfg.HotTaskMigration {
		return d
	}
	for _, c32 := range m.stepCPUs() {
		c := int(c32)
		if m.hotCheckEligible(c) && m.Sched.Power[c].MaxPower > 0 {
			d = min(d, m.wheel.NextHot(now, c))
		}
	}
	return d
}

// firstGovDeadline returns the earliest governor-evaluation instant
// ≥ now of an occupied CPU, the only ones governorEval acts on, or
// NoDeadline when no CPU is occupied or no governor is evaluated.
func (m *Machine) firstGovDeadline(now int64) int64 {
	d := sched.NoDeadline
	for _, c32 := range m.stepCPUs() {
		if m.Sched.RQs[c32].Current != nil {
			d = min(d, m.wheel.NextGov(now, int(c32)))
		}
	}
	return d
}

// clampGovEvals ends the quantum at the first thermal-governor
// evaluation that could change a P-state: the earliest govFirstAct of
// the occupied CPUs (only live CPUs run a task), one solve each. Every
// evaluation it steps past is a provable no-op but for its utilization
// window, which phase 6 replays (addBusy), so phase 8b evaluating only
// at the end tick decides exactly as the lockstep loop does.
func (m *Machine) clampGovEvals(p *quantumPlan, now int64) {
	first := sched.NoDeadline
	for _, c := range m.stepCPUs() {
		first = min(first, m.govFirstAct(int(c), now))
	}
	if first-now < p.dt {
		p.clamp(first-now+1, HorizonGovernor)
	}
}

// govFirstAct returns the first instant ≥ from of CPU c's governor grid
// at which its thermal-governor evaluation might change its P-state,
// or NoDeadline. governorEval returns early on a CPU without a running
// task (a parked CPU has none) and with a transition pending, and
// those stay so through the quantum. Otherwise every input but the
// thermal-power metric is fixed through c's piece: InstPowerW is
// estRatePowerW once the task has run a millisecond, the budget and
// the P-state are constant. Evaluate reads the metric only through
// DownThresholdW, so its decision on each side of that threshold
// (govSides) holds at every instant of the piece: when neither side
// acts no evaluation does, when both act the next one may, and when
// one side acts the metric, which follows S(k) = X + (S0 − X)·q^k from
// its clock with X its constant feed, must first reach that side. Its
// crossing step n is solved once, with the slack of metricMayCross,
// whose test at instant t, n − 1 ≤ t − (clock − 1), holds from
// t = clock − 2 + n on.
func (m *Machine) govFirstAct(c int, from int64) int64 {
	if m.Sched.RQs[c].Current == nil || m.pendingIdx[c] >= 0 {
		return sched.NoDeadline
	}
	pw := m.Sched.Power[c]
	hot, cool := m.govSides(c, pw.MaxPower)
	if hot == cool {
		if !hot {
			return sched.NoDeadline
		}
		return m.wheel.NextGov(from, c)
	}
	down := m.gov.(dvfs.Thermal).DownThresholdW(pw.MaxPower)
	n, ok := crossSteps(pw.ThermalPower(), m.metricFeedW(c), pw.RetentionPerMS(), down, hot)
	if !ok {
		return sched.NoDeadline
	}
	return m.wheel.NextGov(max(from, m.clockOf(c)-2+n), c)
}

// govPair is CPU c's pinned thermal-governor decision (govSides) and
// the inputs it was taken at. It is derived state, kept out of
// checkpoints: New starts every key at NaN, so a restored or branched
// machine takes each afresh.
type govPair struct {
	instW, maxW float64
	cur         int
	hot, cool   bool
}

// govSides reports whether CPU c's thermal-governor evaluation changes
// its P-state with the metric at the down threshold (hot) and just
// below it (cool), its other inputs being the current ones: the
// instantaneous power estRatePowerW, the budget maxW and the P-state.
// Those stay fixed through a piece, so the pair is memoized per CPU
// and taken again only when one of them changes.
func (m *Machine) govSides(c int, maxW float64) (hot, cool bool) {
	in := dvfs.Inputs{
		InstPowerW: m.estRatePowerW(c),
		MaxPowerW:  maxW,
		Cur:        m.freqIdx[c],
		Ladder:     m.dvfsCfg.Ladder,
	}
	gp := &m.govPairs[c]
	if gp.instW == in.InstPowerW && gp.maxW == maxW && gp.cur == in.Cur {
		return gp.hot, gp.cool
	}
	down := m.gov.(dvfs.Thermal).DownThresholdW(maxW)
	in.ThermalPowerW = down
	hot = m.govTarget(in) != in.Cur
	in.ThermalPowerW = math.Nextafter(down, math.Inf(-1))
	cool = m.govTarget(in) != in.Cur
	*gp = govPair{instW: in.InstPowerW, maxW: maxW, cur: in.Cur, hot: hot, cool: cool}
	return hot, cool
}

// hotCheckDue reports whether any CPU whose hot check is due at tick t
// could act there, and which side of the check could not be ruled out.
func (m *Machine) hotCheckDue(t int64) (Horizon, bool) {
	for _, c := range m.wheel.HotDueCPUs(t) {
		if why, ok := m.hotCheckCouldAct(int(c), t); ok {
			return why, true
		}
	}
	return 0, false
}

// hotCheckCouldAct reports whether CPU c's hot check at tick t might
// migrate. sched.HotCheck acts only past two gates, and the check is a
// provable no-op when either is shut at t:
//
//   - Source: a single running task, a core power budget, and the
//     core's thermal sum at or above the trigger. Each live CPU of the
//     core feeds its metric a constant sample from its clock until its
//     next local event, which re-checks (recheckFeed), so the sum
//     follows S(k) = X + (S0 − X)·q^k (see hotCoreSumW and
//     throttleFlipBound); a parked sibling enters at the most its
//     deferred metric can settle to (hotSourceTermsW).
//   - Destination: some other core at least HotDestGapW cooler. S(t)
//     stays below hotSourceCeilW, and the floor (hotFloorFor) bounds
//     every other core's sum at t from below whatever the feeds; when
//     it lies more than HotDestGapW above the ceiling, every domain
//     level's coolest core fails the gap test and HotCheck ascends past
//     them all. Without a floor the check binds on the source test
//     alone (HorizonHotSource); a floor that cannot rule it out reports
//     HorizonHotDest.
func (m *Machine) hotCheckCouldAct(c int, t int64) (Horizon, bool) {
	if !m.hotCheckEligible(c) {
		return 0, false
	}
	return m.hotCheckAt(c, t, m.hotCoreSumW(int(m.Topo.CoreOf[c])))
}

// hotCheckEligible reports whether CPU c runs a single task, the only
// case in which HotCheck looks further.
func (m *Machine) hotCheckEligible(c int) bool {
	rq := m.Sched.RQs[c]
	return rq.Current != nil && rq.Len() == 1
}

// hotCheckAt is hotCheckCouldAct for an eligible CPU c whose core's sum
// is cs.
func (m *Machine) hotCheckAt(c int, t int64, cs coreSum) (Horizon, bool) {
	trigger, ok := m.Sched.HotTriggerW(topology.CPUID(c))
	if !ok {
		return 0, false
	}
	k := t - cs.ref
	if cs.s < trigger && !metricMayCross(cs.s, cs.x, cs.q, trigger, true, k) {
		return 0, false
	}
	f := m.hotFloorFor(cs.q)
	if !f.ok {
		return HorizonHotSource, true
	}
	core, gap := int(m.Topo.CoreOf[c]), m.Sched.Cfg.HotDestGapW
	if f.shutThrough(core, m.winEnd, cs, gap) {
		return 0, false
	}
	K := t - f.start + 1 // t's place in the quantum
	hi := cs.s
	if cs.x > cs.s {
		// The floor's factor is q^K, and one retention serves the
		// machine (hotFloorFor): while the core's clocks stand at the
		// quantum's start, k = K and the two share it.
		qk := f.factor(K)
		if k != K {
			qk = math.Pow(cs.q, float64(k))
		}
		hi = hotSourceCeilW(cs.s, cs.x, qk)
	}
	if hotDestRuledOut(f.floorAt(core, K), hi, gap) {
		return 0, false
	}
	return HorizonHotDest, true
}

// coreSum is a core's thermal sum s after tick ref and its feed x,
// relaxing with per-ms retention q (hotCoreSumW).
type coreSum struct {
	ref     int64
	s, x, q float64
}

// hotCoreSumW returns core's thermal sum after the latest tick any of
// its live CPUs has folded in, and its feed: each live CPU's metric is
// carried from its own clock to that tick along its constant feed (in a
// window the CPUs of a core keep different clocks), and a parked
// sibling enters through hotSourceTermsW.
func (m *Machine) hotCoreSumW(core int) coreSum {
	deferred := m.nParked > 0 && m.metricsDeferred()
	cpus := m.Topo.CPUsOfCore(core)
	cs := coreSum{ref: m.qStartMS - 1, q: m.Sched.Power[int(cpus[0])].RetentionPerMS()}
	for _, d32 := range cpus {
		if d := int(d32); !(deferred && m.parked[d]) {
			cs.ref = max(cs.ref, m.clockOf(d)-1)
		}
	}
	for _, d32 := range cpus {
		d := int(d32)
		if deferred && m.parked[d] {
			sd, xd := hotSourceTermsW(m.Sched.Power[d].ThermalPower(), 0, m.estIdleW, true)
			cs.s, cs.x = cs.s+sd, cs.x+xd
			continue
		}
		xd := m.metricFeedW(d)
		cs.s, cs.x = cs.s+m.metricAtW(d, cs.ref, xd, cs.q), cs.x+xd
	}
	return cs
}

// metricAtW returns CPU d's metric after tick ref, carried from its
// clock along its constant feed x with per-ms retention q.
func (m *Machine) metricAtW(d int, ref int64, x, q float64) float64 {
	tp := m.Sched.Power[d].ThermalPower()
	if n := ref - (m.clockOf(d) - 1); n > 0 {
		tp = x + (tp-x)*math.Pow(q, float64(n))
	}
	return tp
}

// crossSlackRel moves a threshold toward the side that acts for the
// planner's crossing predictions (the hot trigger, the thermal
// governor's down threshold). The engines fold a quantum's metric in
// one update, or in per-millisecond ones, and differ from the closed
// form by a few ulps; this relative margin (far above that drift)
// keeps the prediction on the safe side. The hot destination test
// keeps the same margin.
const crossSlackRel = 1e-9

// metricMayCross reports whether a metric (or a core's sum of them)
// starting at s0 and relaxing toward x with per-millisecond retention
// may, within k milliseconds, reach threshold (rising: at or above it)
// or drop below it (falling). It errs toward true: the threshold moves
// crossSlackRel toward the crossing side (crossSteps), and the
// predicted crossing gets one millisecond of slack.
func metricMayCross(s0, x, retain, threshold float64, rising bool, k int64) bool {
	n, ok := crossSteps(s0, x, retain, threshold, rising)
	return ok && n-1 <= k
}

// crossSteps is profile.CrossSteps with the threshold moved
// crossSlackRel toward the crossing side.
func crossSteps(s0, x, retain, threshold float64, rising bool) (int64, bool) {
	slack := crossSlackRel * math.Abs(threshold)
	if !rising {
		slack = -slack
	}
	return profile.CrossSteps(s0, x, retain, threshold-slack, rising)
}

// hotDestFloor is the planner's per-quantum scratch for the
// destination side of the hot checks: every core's floor term sum
// (hotFloorTermW) read once in the quantum, of which only the two
// smallest are kept, so that the source core can be left out. The
// floor at the quantum's k-th tick is q^k times them; the last factor
// taken is kept, so the CPUs due on one tick share one math.Pow, and so
// is the factor at the window's planned end (shutThrough). Phase 8
// reads it too (hotDestShut).
type hotDestFloor struct {
	start   int64   // first tick of the quantum that built the bounds
	ok      bool    // the bounds exist (see hotFloorFor)
	q       float64 // the per-ms retention
	lo, lo2 float64 // the smallest and second-smallest core sums
	loCore  int     // the core lo belongs to
	k       int64   // the tick place qk belongs to (floorAt)
	qk      float64 // q^k
	end     int64   // the end tick qEnd belongs to (shutThrough)
	qEnd    float64 // q^K, K the end tick's place in the quantum
}

// floorExcl returns the smallest core bound other than core's own.
func (f *hotDestFloor) floorExcl(core int) float64 {
	if f.loCore == core {
		return f.lo2
	}
	return f.lo
}

// factor returns q^k, the floor's factor at the quantum's k-th tick.
func (f *hotDestFloor) factor(k int64) float64 {
	if k != f.k {
		f.k, f.qk = k, math.Pow(f.q, float64(k))
	}
	return f.qk
}

// floorAt bounds from below every core's thermal sum but core's own
// after the quantum's k-th tick.
func (f *hotDestFloor) floorAt(core int, k int64) float64 {
	return f.factor(k) * f.floorExcl(core)
}

// shutThrough is the window-end pre-test of a hot check of core, whose
// sum is cs: it reports whether the destination side is shut at every
// tick of the quantum through end (hotDestRuledOutThrough), so that
// the per-tick test and its powers of q are not needed. The source
// ceiling through end is max(s, x), or, while the core's clocks stand
// at the quantum's start, its value at end, whose power of q is the
// floor's factor there.
func (f *hotDestFloor) shutThrough(core int, end int64, cs coreSum, gap float64) bool {
	if !(cs.s >= 0 && cs.x >= 0) {
		return false // a ceiling bounds the sum's magnitude only when both are
	}
	if end != f.end {
		f.end, f.qEnd = end, math.Pow(f.q, float64(end-f.start+1))
	}
	hi := max(cs.s, cs.x)
	if cs.x > cs.s && cs.ref == f.start-1 {
		hi = hotSourceCeilW(cs.s, cs.x, f.qEnd)
	}
	return hotDestRuledOutThrough(f.qEnd, f.floorExcl(core), hi, gap)
}

// hotFloorFor returns the destination bounds for the machine-wide
// per-ms retention q, built at most once per quantum in one read-only
// pass over the cores: each core sums its CPUs' hotFloorTermW, which
// reads parked CPUs' deferred metrics without settling them. A live
// metric, read at any clock in the quantum, keeps at least q^j of
// itself over j more ticks whatever its feed, because every sample is
// non-negative, so q^k times a core's sum bounds it at the quantum's
// k-th tick. The bounds need non-negative metric samples and one
// retention for the whole machine, so they are missing (ok false)
// under a negative estimate or per-package thermal calibrations; the
// planner then keeps to the source test.
func (m *Machine) hotFloorFor(q float64) *hotDestFloor {
	f := &m.destFloor
	if f.start == m.qStartMS {
		return f
	}
	f.start, f.q = m.qStartMS, q
	f.k, f.qk, f.end = 0, 1, f.start-1 // q^0; no end factor yet
	f.ok = m.thermWShared && m.estimatesNonNegative()
	if !f.ok {
		return f
	}
	f.lo, f.lo2, f.loCore = math.Inf(1), math.Inf(1), -1
	deferred := m.nParked > 0 && m.metricsDeferred()
	for core := range m.nodes {
		lo := 0.0
		for _, d32 := range m.Topo.CPUsOfCore(core) {
			d := int(d32)
			parked := deferred && m.parked[d]
			var gap int64
			if parked {
				gap = m.qStartMS - m.cpuSettledMS[d]
			}
			lo += hotFloorTermW(m.Sched.Power[d].ThermalPower(), m.estIdleW, q, gap, parked)
		}
		if lo < f.lo {
			f.lo, f.lo2, f.loCore = lo, f.lo, core
		} else if lo < f.lo2 {
			f.lo2 = lo
		}
	}
	return f
}

// hotDestShut reports whether CPU c's hot check at the end of the
// quantum, its k-th tick, is a provable no-op because no core can be
// HotDestGapW cooler: this quantum's floor holds at k, and the source
// core's sum, read now that the quantum is folded in, stays more than
// the gap above it. End-of-tick events and earlier passes of phase 8
// move tasks but no thermal sum, and a parked sibling enters at the
// most its deferred metric can settle to, so the proof holds whatever
// phase 8 did before the check.
func (m *Machine) hotDestShut(c int, k int64) bool {
	f := &m.destFloor
	if f.start != m.qStartMS || !f.ok {
		return false // no floor from this quantum
	}
	core := int(m.Topo.CoreOf[c])
	hi := 0.0
	deferred := m.nParked > 0 && m.metricsDeferred()
	for _, d32 := range m.Topo.CPUsOfCore(core) {
		d := int(d32)
		s, _ := hotSourceTermsW(m.Sched.Power[d].ThermalPower(), 0, m.estIdleW, deferred && m.parked[d])
		hi += s
	}
	return hotDestRuledOut(f.floorAt(core, k), hi, m.Sched.Cfg.HotDestGapW)
}

// estimatesNonNegative reports whether every metric sample is
// non-negative: all estimator weights and the halt power are.
func (m *Machine) estimatesNonNegative() bool {
	if m.Est.HaltPower < 0 {
		return false
	}
	for _, w := range m.Est.Weights {
		if w < 0 {
			return false
		}
	}
	return true
}

// hotFloorTermW is one CPU's term of a core's floor sum, tp its stored
// metric and q the per-ms retention: q^k times the term bounds the
// metric from below after the quantum's k-th tick. A live metric takes
// one sample per ms; when every sample is non-negative it keeps at
// least q^j of itself over j ticks, so its term is tp. A deferred
// (parked) metric still owes the idle samples of gap ms before the
// quantum, and its settle folds the constant idle sample: from below
// idleW it rises and never drops under tp; from above it falls to
// idleW + (tp − idleW)·q^(gap+k), at least q^k times its value at the
// quantum's start.
func hotFloorTermW(tp, idleW, q float64, gap int64, deferred bool) float64 {
	if !deferred || tp <= idleW {
		return tp
	}
	return idleW + (tp-idleW)*math.Pow(q, float64(gap))
}

// hotSourceTermsW returns one CPU's share of a source core's starting
// sum and feed. A live CPU adds its stored metric tp and its feed. A
// deferred (parked) metric is read as stored, without settling it:
// settled at any tick it lies between tp and the idle sample, and its
// upper end, entered in both and so held constant, keeps the core's
// closed form an upper bound.
func hotSourceTermsW(tp, feed, idleW float64, deferred bool) (s, x float64) {
	if deferred {
		hi := math.Max(tp, idleW)
		return hi, hi
	}
	return tp, feed
}

// hotSourceCeilW bounds from above, for every k ≤ n, a core sum
// relaxing from s0 toward its feed x, where qn is the retention over
// n ms: a falling sum stays at or below s0, and a rising one below its
// value after n ms.
func hotSourceCeilW(s0, x, qn float64) float64 {
	if x <= s0 {
		return s0
	}
	return x + (s0-x)*qn
}

// hotDestRuledOut reports whether no core whose sum is at least lo can
// be HotDestGapW (gap) cooler than a source core whose sum is at most
// hi: HotCheck's test destTP ≤ myCoreTP − gap then fails everywhere.
// The margin must clear crossSlackRel, which absorbs the engines'
// rounding drift from the closed forms.
func hotDestRuledOut(lo, hi, gap float64) bool {
	if math.IsInf(lo, 1) {
		return true // no other core to migrate to
	}
	return lo-(hi-gap) > crossSlackRel*math.Max(math.Abs(lo), math.Abs(hi))
}

// hotDestRuledOutThrough reports whether hotDestRuledOut holds at every
// tick of a run whose last tick's floor factor is qEnd, lo being the
// other cores' floor sum (floorExcl) and hi a non-negative bound on the
// source ceiling's magnitude at every tick. A power of q only falls as
// its exponent grows, so at an earlier tick the floor qk·lo is at least
// qEnd·lo; floating-point rounding is monotone, so the gap test's left
// side there is at least its value here. Its right side, the slack,
// grows with the floor, and is taken at the largest floor, lo itself.
// A negative lo reports false: the floor's premise is non-negative
// metrics.
func hotDestRuledOutThrough(qEnd, lo, hi, gap float64) bool {
	if !(lo >= 0) {
		return false
	}
	loEnd := qEnd * lo
	if math.IsInf(loEnd, 1) {
		return true // no other core, at every tick: qk ≥ qEnd > 0
	}
	return loEnd-(hi-gap) > crossSlackRel*max(lo, hi)
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
// signal, which must stay the same quantity. From the running-task
// scan to the window's end it goes through the per-piece cache (feedW,
// NaN while unread).
func (m *Machine) estRatePowerW(c int) float64 {
	if m.execSpeed[c] <= 0 {
		return 0
	}
	if !m.feedsCached {
		_, x := m.ratePowersW(c)
		return x
	}
	x := m.feedW[c]
	if math.IsNaN(x) {
		_, x = m.ratePowersW(c)
		m.feedW[c] = x
	} else if m.verifyFeeds {
		if _, fresh := m.ratePowersW(c); fresh != x {
			panic(fmt.Sprintf("machine: CPU %d's cached feed %v at tick %d, recomputed %v", c, x, m.nowMS, fresh))
		}
	}
	return x
}

// clampThrottleCrossings bounds the quantum by the predicted throttle
// decision flips (throttleFlipBound), one millisecond short of each, so
// that the flip itself is decided on 1 ms quanta, identically to
// lockstep.
func (m *Machine) clampThrottleCrossings(dt int64) int64 {
	now := m.nowMS
	for i := range m.throttles {
		if end, ok := m.throttleFlipBound(i, now); ok {
			dt = min(dt, end-now+1)
		}
	}
	return dt
}

// throttleFlipBound returns the last tick, not before floor, that a
// quantum may reach before throttle i's engage/disengage decision could
// flip; ok is false when it cannot flip while the members' feeds hold.
// While each member CPU feeds a constant sample x from its clock, the
// group's summed metric follows S(n) = X + (S0 − X)·q^n exactly from
// ref, the latest tick any member has folded in (hotCoreSumW's carry),
// so the first fold at which the condition changes is solved in closed
// form.
func (m *Machine) throttleFlipBound(i int, floor int64) (int64, bool) {
	th := m.throttles[i]
	if th.LimitW <= 0 {
		return 0, false
	}
	members := m.throttleMembers[i]
	ref := m.qStartMS - 1
	for _, cpu := range members {
		ref = max(ref, m.clockOf(int(cpu))-1)
	}
	retain := m.Sched.Power[int(members[0])].RetentionPerMS()
	s0, x := 0.0, 0.0
	for _, cpu := range members {
		xd := m.metricFeedW(int(cpu))
		s0 += m.metricAtW(int(cpu), ref, xd, retain)
		x += xd
	}
	var n int64
	var ok bool
	if th.Engaged() {
		n, ok = profile.CrossSteps(s0, x, retain, th.LimitW-thermal.Hysteresis, false)
	} else {
		n, ok = profile.CrossSteps(s0, x, retain, th.LimitW, true)
	}
	if !ok {
		return 0, false
	}
	return max(ref+n-1, floor), true
}

// throttleOf returns the index of the scalar throttle whose group holds
// CPU c.
func (m *Machine) throttleOf(c int) int {
	switch m.Cfg.Scope {
	case ThrottlePerCore:
		return int(m.Topo.CoreOf[c])
	case ThrottlePerPackage:
		return int(m.Topo.PkgOf[c])
	}
	return c
}

// clampUnitCrossings bounds the quantum so that no unit-temperature
// throttle decision can flip inside it: each live core's unitFlipTicks
// from the temperatures at the quantum's start, at the true powers of
// its CPUs' first pieces — the crossing tick's own for a CPU that ran
// it ahead (eagerTick), the current rates' otherwise. A window re-derives
// a package's bounds wherever one of its CPUs' true power changes
// (recheckUnits).
func (m *Machine) clampUnitCrossings(dt int64) int64 {
	raw := m.corePower // scratch: the thermal phase recomputes it
	for core := range m.nodes {
		sum := 0.0
		for _, c32 := range m.Topo.CPUsOfCore(core) {
			c := int(c32)
			w := m.truePower[c]
			if m.clockOf(c) == m.qStartMS {
				w, _ = m.ratePowersW(c)
			}
			sum += w
		}
		raw[core] = sum
	}
	cores := m.Cfg.Layout.Cores()
	for core := range m.unitThrottles {
		if m.pkgParked[core/cores] {
			continue // parked: unit temperatures falling below limit
		}
		dt = min(dt, m.unitFlipTicks(core, raw))
	}
	return dt
}

// recheckUnits re-derives, from tick from on, the unit-throttle horizon
// of package p's cores once a CPU of p changed its true power at from:
// chip coupling carries the change to every core of the package. The
// bound starts from the package's temperatures settled through from−1
// and the true powers its CPUs now hold. A package not settled to from
// has no temperatures there, and the window ends at from, on the side
// that ends it: tick from itself runs at powers the decision before it
// already covered.
func (m *Machine) recheckUnits(p int, from int64) {
	if m.unitThrottles == nil || m.pkgParked[p] {
		return
	}
	if m.pkgClockOf(p) != from {
		m.shrinkWindow(from, HorizonUnit)
		return
	}
	cores := m.Cfg.Layout.Cores()
	raw := m.corePower // scratch: every settle and the thermal phase recompute it
	for core := p * cores; core < (p+1)*cores; core++ {
		sum := 0.0
		for _, c := range m.Topo.CPUsOfCore(core) {
			sum += m.truePower[int(c)]
		}
		raw[core] = sum
	}
	for core := p * cores; core < (p+1)*cores; core++ {
		m.shrinkWindow(from+m.unitFlipTicks(core, raw)-1, HorizonUnit)
	}
}

// unitFlipTicks returns how many ticks, at least one, core's
// unit-temperature throttle decision provably holds from its current
// temperatures while the raw true powers of its package's cores stay
// raw. The core reference stays between its temperature and the steady
// point of its coupled power, and a hotspot's per-millisecond move
// toward a threshold is at most (1 − a)·gap where a is its per-ms
// retention and gap its distance to the extreme reachable target
// (reference bound + R·core power for rises, reference bound for
// falls). A 2× safety factor absorbs the shrinking-gap conservatism;
// near a threshold the bound collapses to 1 ms, where decisions are made
// exactly as in lockstep.
func (m *Machine) unitFlipTicks(core int, raw []float64) int64 {
	th := m.unitThrottles[core]
	n := unboundedQuantumMS
	if th.LimitW <= 0 {
		return n
	}
	bound := func(margin, gap, onePerMS float64) {
		if gap <= 0 {
			return // cannot move toward the threshold
		}
		if f := margin / (onePerMS * gap) / 2; f < float64(n) {
			n = max(int64(f), 1)
		}
	}
	eff := m.coupledEffPower(raw, core)
	node := m.nodes[core]
	refHi := math.Max(node.TempC, node.Props.SteadyTemp(eff))
	refLo := math.Min(node.TempC, node.Props.SteadyTemp(eff))
	onePerMS := 1 - m.unitNodes[core][0].Props.DecayPerMS()
	if th.Engaged() {
		// The flip (disengage) requires the hottest unit itself to fall
		// below limit − hysteresis; bound its fastest fall.
		var hot *thermal.Node
		for _, un := range m.unitNodes[core] {
			if hot == nil || un.TempC > hot.TempC {
				hot = un
			}
		}
		bound(math.Max(hot.TempC-(th.LimitW-thermal.Hysteresis), 0), hot.TempC-refLo, onePerMS)
	} else {
		// The flip (engage) happens when any unit rises to the limit;
		// bound each unit's fastest rise. A unit's power is at most its
		// core's raw power.
		for _, un := range m.unitNodes[core] {
			bound(math.Max(th.LimitW-un.TempC, 0), refHi+unitR*raw[core]-un.TempC, onePerMS)
		}
	}
	return n
}

func ceilToInt64(v float64) int64 { return int64(math.Ceil(v)) }
