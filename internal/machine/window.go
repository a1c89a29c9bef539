package machine

import (
	"math"

	"energysched/internal/counters"
	"energysched/internal/dvfs"
	"energysched/internal/sched"
	"energysched/internal/topology"
	"energysched/internal/units"
	"energysched/internal/workload"
)

// Windows: quanta that only cross-CPU events end.
//
// In the paper only balancing (§4.4), hot task migration (§4.5) and
// placement (§4.6) read across CPUs; the per-timeslice energy profile
// (§3.3) and the thermal-power metric (§4.3) are per-CPU bookkeeping.
// So the async engine's planner ends a quantum — a *window* — only at
// an event that crosses CPUs: a wake-up, a completion, a block that
// could feed a balance, a warm-up end, a timeslice expiry that
// dispatches another task, a queued balance, a governor evaluation or
// hot check that could act, a throttle flip that could happen, a
// P-state change, a monitor or fault instant, or the limit.
// Inside the window each busy CPU advances on its own clock
// (cpuSettledMS, as parked CPUs do) through its *local* boundaries:
//
//   - a timeslice expiry that re-dispatches the same task (the task is
//     alone on its runqueue, and nothing enqueues inside a window),
//   - a rate crossing: the last tick before the task's event rates
//     change, and the crossing tick itself, whose mixed rates make it a
//     one-tick piece of its own (as in the planner's 1 ms crossing
//     quantum), and
//   - a local stop (stopIsLocal): a block, not a completion, while
//     nothing is queued anywhere and no SMT sibling of the CPU
//     executes, outside a crossing tick run ahead. No balance or idle
//     pull can act on the CPU it idles, and no sibling's speed changes;
//     nothing enqueues inside a window, so this holds to its end.
//
// The boundaries sit in a min-heap keyed on (tick, CPU), the lockstep
// engine's commit order, so the slice_end/dispatch trace events and the
// placement table's first-slice records come out in lockstep order. A
// pop settles that CPU's piece (workload, counters, metric fold) and
// its package's thermal nodes through the boundary, commits the event
// with the clock and the deadline wheel at the boundary tick, and
// pushes the CPU's next boundary. A crossing tick is executed when its
// piece starts (eagerTick): its power feeds the package's thermal
// settle and its sample the predictions below before anything past it
// is integrated. The commit waits for the tick's own pop.
//
// Most pops are same-task slice expiries at which nothing but the
// slice changes, and they cost O(their CPU): when no crossing tick is
// staged, the task's rates hold strictly past the boundary (the rate
// horizon from the piece's start exceeds the piece, so an epoch ending
// exactly on the boundary is excluded) and the package was already
// settled in the window, the pop runs and commits the piece and starts
// the next one, keeping the CPU's true power and feed; the package
// settles at its next full pop, or at the window's end (popLocal,
// sliceHolds). Machines with §7 unit hotspots keep the full pop.
//
// A local stop commits the block at its own (tick, CPU) key, and the
// CPU then runs idle from the next tick on its own clock: the execution
// phase closes its idle piece and the park phase parks it. Its sleeper
// wakes at a start-of-tick instant, so the window shrinks to the tick
// before. Its feed falls, which the re-checks below cover; the hot
// checks need none (see recheckFeed). Stops no longer bound the plan,
// so the planner's hot walk (walkHotChecks) goes only to the earliest
// local stop still pending — a wake it draws may end the window there
// — and runWindow extends it as the pops pass it. A wake at the very
// next tick ends the window at the stop's tick, so while a local stop
// is pending at t no crossing tick t+1 runs ahead (startPiece), and
// the execution and thermal phases pass over a CPU or a package that a
// pop already settled through the end tick.
//
// A rate crossing changes the CPU's metric feed, which the planner's
// hot-check, governor and throttle predictions read. The hot-source
// test of the CPU's core, the CPU's thermal-governor evaluations and
// its scalar throttle group's flip are re-checked from the crossing on
// (recheckFeed); a re-check may only move the window's end earlier,
// and never before the crossing tick, so nothing it invalidates has
// been integrated yet. The hot checks are re-checked only when the
// samples rise above the feed they replace (feedRose): a core's sum
// is monotone in its CPUs' samples, so a check ruled out under the old
// feed stays ruled out under lower samples. The destination floor of
// the hot checks does not read feeds at all. A change of the CPU's
// true power moves its package's §7 unit temperatures, so the
// unit-throttle horizon of the package's cores is re-derived from that
// tick's settled temperatures (recheckUnits). Under §2.3 task
// throttling a window runs only while no throttle is engaged (the
// planner keeps 1 ms spans while one is), and the scalar throttle
// re-check bounds the next engagement.
//
// The feeds themselves are cached per piece (feedW): from the planner's
// running-task scan to the window's end, only a piece's execution
// changes a busy CPU's event rates (its speed, P-state and the
// estimator weights hold through the quantum). The scan marks each busy
// CPU's feed unread (NaN), so a plan pays nothing for feeds no
// prediction reads; the first read, or the package's first settle,
// fills it. A pop reads the rates once after its commit, for the next
// piece's true power and feed, and a crossing tick run ahead marks the
// feed unread again, as its rates changed. At the window's end the
// cache is dropped (feedsCached), so phases 6–8 read the rates afresh.
//
// At the window's end the execution and thermal phases of step settle
// every busy CPU and live package from its own clock to the end tick
// and commit the end tick's events in CPU order, as before.

// localHeap is a min-heap of busy CPUs' next local boundaries keyed on
// (tick, CPU). Each CPU has at most one entry, so the heap stays within
// its nCPU capacity and a push allocates nothing.
type localHeap struct{ keys []int64 }

// localCPUBits holds a CPU index in a key's low bits; the array index
// below fails to compile if topology.MaxLogical CPUs would not fit.
const localCPUBits = 12

var _ = [1 << localCPUBits]struct{}{}[topology.MaxLogical-1]

func (h *localHeap) reset() { h.keys = h.keys[:0] }

func (h *localHeap) push(t int64, c int) {
	h.keys = append(h.keys, t<<localCPUBits|int64(c))
	for i := len(h.keys) - 1; i > 0; {
		parent := (i - 1) / 2
		if h.keys[parent] <= h.keys[i] {
			break
		}
		h.keys[parent], h.keys[i] = h.keys[i], h.keys[parent]
		i = parent
	}
}

// peek returns the earliest boundary; ok is false when the heap is
// empty.
func (h *localHeap) peek() (t int64, c int, ok bool) {
	if len(h.keys) == 0 {
		return 0, 0, false
	}
	k := h.keys[0]
	return k >> localCPUBits, int(k & (1<<localCPUBits - 1)), true
}

func (h *localHeap) pop() {
	n := len(h.keys) - 1
	h.keys[0] = h.keys[n]
	h.keys = h.keys[:n]
	for i := 0; ; {
		l, small := 2*i+1, i
		if l < n && h.keys[l] < h.keys[small] {
			small = l
		}
		if r := l + 1; r < n && h.keys[r] < h.keys[small] {
			small = r
		}
		if small == i {
			return
		}
		h.keys[i], h.keys[small] = h.keys[small], h.keys[i]
		i = small
	}
}

// shrinkWindow ends the window at tick t if that is earlier.
func (m *Machine) shrinkWindow(t int64, why Horizon) {
	if t < m.winEnd {
		m.winEnd, m.winWhy = t, why
	}
}

// clockOf returns CPU c's execution clock in the quantum being stepped:
// the first tick not yet folded into its workload and metric.
func (m *Machine) clockOf(c int) int64 {
	if m.async && m.cpuSettledMS[c] > m.qStartMS {
		return m.cpuSettledMS[c]
	}
	return m.qStartMS
}

// pkgClockOf returns live package p's thermal clock in the quantum being
// stepped: the first tick not yet integrated into its nodes.
func (m *Machine) pkgClockOf(p int) int64 {
	if m.async && m.pkgSettledMS[p] > m.qStartMS {
		return m.pkgSettledMS[p]
	}
	return m.qStartMS
}

// ratePowersW returns CPU c's true power and its estimated power
// (estRatePowerW) while its current rates and speed hold, from one read
// of the running task's event rates: its execution power through the
// true model and through the estimator weights, or the idle share and 0
// when the CPU is halted or idle.
func (m *Machine) ratePowersW(c int) (trueW, estW float64) {
	speed := m.execSpeed[c]
	if speed <= 0 {
		return m.idleShareW, 0
	}
	r := m.dispatches[c].task.work.EffectiveRates()
	trueW, estW = m.Model.ExecPower(r)*speed, m.Est.RateWatts(r)*speed
	if m.dvfsOn {
		trueW *= m.powScale[c]
		estW *= m.powScale[c]
	}
	return trueW, estW
}

// holdRatePowers holds CPU c's true power — and its per-unit true powers
// on a machine with unit hotspots — for a piece at its current rates and
// speed, and returns the piece's estimated power (ratePowersW).
func (m *Machine) holdRatePowers(c int) (estW float64) {
	m.truePower[c], estW = m.ratePowersW(c)
	if m.unitPowerW == nil {
		return estW
	}
	var ue units.Energies
	if speed := m.execSpeed[c]; speed > 0 {
		ue = units.SplitExact(m.Model.Weights, counters.Frac(m.dispatches[c].task.work.EffectiveRates()))
		scale := speed * 1000
		if m.dvfsOn {
			scale *= m.powScale[c]
		}
		for u := range ue {
			ue[u] *= scale
		}
	}
	m.unitPowerW[c] = ue
	return estW
}

// nominalPState is the ladder's top index under DVFS, 0 without.
func (m *Machine) nominalPState() int {
	if m.dvfsOn {
		return m.dvfsCfg.Ladder.Max()
	}
	return 0
}

// govThermal reports whether a thermal governor evaluates occupied
// CPUs: the only governor whose evaluations a window may contain.
func (m *Machine) govThermal() bool {
	if !m.dvfsOn || m.govPeriod <= 0 {
		return false
	}
	_, ok := m.gov.(dvfs.Thermal)
	return ok
}

// startPiece begins CPU c's next piece at tick t: it ends the window
// at the running task's cross-CPU horizons (a stop that is not local,
// warm-up end, a timeslice expiry that dispatches another task),
// records a local stop in stopAt, and pushes the piece's local
// boundary — the slice expiry, the last tick before a rate crossing,
// or a local stop before both — or, when the rates change inside tick
// t itself, executes that tick now (eagerTick). A piece reaching the
// window's end needs no boundary: the execution phase runs it.
// interior is false while the planner starts the window's first
// pieces, whose predictions its own walks make afterwards; a first
// piece's feed is marked unread here, a later one's true power and
// feed come from popLocal. When it ran eagerTick it returns the
// crossing tick's metric sample and eager true, and popLocal re-checks
// from the tick.
func (m *Machine) startPiece(c int, t int64, throttled []bool, interior bool) (sampleW float64, eager bool) {
	m.stopAt[c] = sched.NoDeadline
	rq := m.Sched.RQs[c]
	cur, speed := rq.Current, m.execSpeed[c]
	if cur == nil || speed <= 0 {
		return 0, false
	}
	if !interior {
		m.feedW[c] = math.NaN()
	}
	if t >= m.winEnd {
		return 0, false
	}
	slice := t + ticksOf(cur.SliceLeft) - 1
	if rq.Len() > 1 {
		m.shrinkWindow(slice, HorizonSlice)
	}
	if cur.WarmupLeft > 0 {
		m.shrinkWindow(t+ticksOf(cur.WarmupLeft)-1, HorizonWarmup)
	}
	work := m.dispatches[c].task.work
	stop := sched.NoDeadline // a local stop's tick
	if sh := work.StopHorizonMS(); !math.IsInf(sh, 1) {
		// Block/finish take effect at the end of the crossing
		// millisecond.
		at := t + ticksOf(sh/speed) - 1
		if m.stopIsLocal(c, work, speed) {
			stop, m.stopAt[c], m.anyStop = at, at, true
		} else {
			m.shrinkWindow(at, HorizonStop)
		}
	}
	if t >= m.winEnd {
		return 0, false
	}
	end, holds := slice, true
	if rh := work.RateHorizonMS(); !math.IsInf(rh, 1) {
		r := rateHorizonMS(rh, speed)
		if r == 0 {
			if interior && m.nextStop(t-1) == t-1 {
				// A wake drawn by that stop may end the window at
				// t−1: run nothing past it.
				m.shrinkWindow(t-1, HorizonStop)
				return 0, false
			}
			return m.eagerTick(c, t, throttled), true
		}
		end = min(end, t+r-1)
		holds = t+r-1 > slice
	}
	if stop <= end {
		end, holds = stop, false // a local stop before the crossing tick
	}
	if end < m.winEnd {
		m.local.push(end, c)
		m.sliceOnly[c] = holds
	}
	return 0, false
}

// stopIsLocal reports whether the stop ahead of CPU c's task, running
// at speed speed, stays inside the window: it
// is a block, not a completion (its tick comes strictly before the
// finish tick; TickInto reports Finished when both fall in one tick),
// nothing is queued anywhere, and no SMT sibling of c executes. No
// balance or idle pull can then act on the idle CPU, no sibling's
// speed rises, and nothing enqueues inside a window, so the conditions
// hold to its end; a block in a crossing tick run ahead still ends the
// window (eagerTick).
func (m *Machine) stopIsLocal(c int, work *workload.Task, speed float64) bool {
	bh := work.BlockHorizonMS()
	if math.IsInf(bh, 1) || m.Sched.QueuedCount() > 0 {
		return false
	}
	if fh := work.FinishHorizonMS(); !math.IsInf(fh, 1) && ticksOf(fh/speed) <= ticksOf(bh/speed) {
		return false
	}
	if m.Cfg.Layout.ThreadsPerPackage > 1 {
		for _, sib := range m.Topo.CPUsOfCore(int(m.Topo.CoreOf[c])) {
			if int(sib) != c && m.execSpeed[sib] > 0 {
				return false
			}
		}
	}
	return true
}

// nextStop returns the earliest local stop still to be popped at or
// after tick t, or NoDeadline: a wake it draws may end the window
// there.
func (m *Machine) nextStop(t int64) int64 {
	next := sched.NoDeadline
	if m.anyStop {
		for _, c := range m.stepCPUs() {
			if s := m.stopAt[c]; s >= t && s < next {
				next = s
			}
		}
	}
	return next
}

// walkHotChecks extends the window's hot walk through tick to (at most
// the window's end; the earliest pending local stop, nextStop, bounds
// each extension): it walks the static hot grid from the tick after
// hotWalked and ends the window at the first instant whose check could
// act (hotCheckDue). Every check it steps past is a provable no-op, so
// phase 8 firing only at the end tick still decides exactly as the
// lockstep loop does.
func (m *Machine) walkHotChecks(to int64) {
	to = min(to, m.winEnd)
	for t := m.hotWalked + 1; t <= to; t++ {
		if why, ok := m.hotCheckDue(t); ok {
			m.shrinkWindow(t, why)
			to = t
			break
		}
	}
	m.hotWalked = max(m.hotWalked, to)
}

// ticksOf is the number of ticks, at least one, that a horizon of v
// milliseconds spans: the event takes effect at the end of its tick.
func ticksOf(v float64) int64 { return max(ceilToInt64(v), 1) }

// eagerTick executes tick t, in which CPU c's event rates change, as a
// piece of its own, stages its commit for the tick's pop (or the
// execution phase, when t ends the window), and returns the tick's
// metric sample. Its package is settled to t first, at the powers held
// before the tick: a slice expiry's fast path (popLocal) leaves it
// behind. The tick's sample and the rates after it are now known: the
// cached feed is marked unread, to be read at the new rates (the
// tick's own power stays c's true power until the tick's pop).
func (m *Machine) eagerTick(c int, t int64, throttled []bool) (sampleW float64) {
	m.settleLivePackage(int(m.Topo.PkgOf[c]), t)
	saved := m.nowMS
	m.nowMS = t
	m.execPiece(c, t, throttled)
	m.nowMS = saved
	m.feedW[c] = math.NaN()
	if st := m.p6stat[c]; st == p6Finish || st == p6Block {
		m.shrinkWindow(t, HorizonStop)
	}
	if t < m.winEnd {
		m.local.push(t, c)
	}
	// The sample the piece folded into the metric (AddEnergyWeighted
	// over one millisecond): the estimate of the tick's exact counts.
	ps := 1.0
	if m.dvfsOn {
		ps = m.powScale[c]
	}
	return m.Est.EnergyJExact(m.tickScratch.Exact, 0) * ps / (1.0 / 1000)
}

// execPiece runs the execution sweep's compute half for CPU c from its
// clock through tick end (the clock must point there: addBusy reads
// it) and advances the clock.
func (m *Machine) execPiece(c int, end int64, throttled []bool) {
	dt := end - m.clockOf(c) + 1
	fdt := float64(dt)
	m.execComputeCPU(c, throttled, dt, fdt, m.thermWeightFor(c, fdt), m.nominalPState())
	m.cpuSettledMS[c] = end + 1
}

// runWindow steps the window's interior: it pops the local boundaries
// before the window's last tick in (tick, CPU) order, extending the hot
// walk ahead of each pop past it, and through the window's end once
// none is left; it returns the window's final length and the horizon
// that bound it. Boundaries at the last tick are left to the execution
// phase, which commits that tick's events in CPU order.
func (m *Machine) runWindow(throttled []bool) (int64, Horizon) {
	start := m.qStartMS
	for {
		t, c, ok := m.local.peek()
		if !ok || t >= m.winEnd {
			break
		}
		if t > m.hotWalked {
			m.walkHotChecks(m.nextStop(t))
			continue
		}
		m.local.pop()
		m.popLocal(t, c, throttled)
	}
	m.walkHotChecks(m.winEnd)
	m.nowMS = start
	return m.winEnd - start + 1, m.winWhy
}

// popLocal settles CPU c through its local boundary t, commits the
// boundary's event at t and starts c's next piece, whose true power and
// feed it reads from the rates once. Rates that change exactly at the
// boundary (a phase or noise epoch ending with the piece) change the
// feed and the true power without a crossing tick, and are re-checked
// here, as is a crossing tick that the next piece runs ahead. A local
// stop leaves c idle from t+1, at the idle powers, and shrinks the
// window to the tick before its sleeper's wake; a governor evaluation
// due at t is not replayed, as governorEval returns early on the CPU
// the block empties.
//
// A same-task slice expiry at which the rates hold (sliceHolds) takes a
// fast path: the piece runs and commits, and nothing else changes.
// c's true power, feed and P-state stay those held since the piece
// began, so its package's input is unchanged, the package settle waits
// for the package's next full pop (or the window's end), and no
// prediction needs a re-check. Splitting the package's constant-input
// step differently moves its temperatures by rounding only, and its
// peak is still caught at the next settle: the response is monotone
// under constant input.
func (m *Machine) popLocal(t int64, c int, throttled []bool) {
	m.nowMS = t
	p := int(m.Topo.PkgOf[c])
	if m.sliceHolds(c, p) {
		feed := m.metricFeedW(c) // cached since the piece began
		trueW := m.truePower[c]
		m.execPiece(c, t, throttled)
		m.truePower[c] = trueW // not the piece's count-derived power
		m.replayGovEval(c, t)
		m.execCommitCPU(c, t)
		if m.qstats != nil {
			m.qstats.Interior[HorizonSlice]++
		}
		if sampleW, eager := m.startPiece(c, t+1, throttled, true); eager {
			m.recheckEager(c, p, t+1, feed, sampleW)
		}
		return
	}
	m.settleLivePackage(p, t+1)
	feed := m.metricFeedW(c)     // the cached feed of the piece ending at t
	trueW := m.truePower[c]      // and its true power, held since it began
	crossing := m.p6stat[c] != 0 // the staged crossing tick t
	if !crossing {
		m.execPiece(c, t, throttled)
	}
	task := m.dispatches[c].task
	// A local stop (stopIsLocal) replays no governor evaluation:
	// governorEval returns early on the CPU the block empties.
	blocked := m.p6stat[c] == p6Block
	if !blocked {
		m.replayGovEval(c, t)
	}
	sliceEnds := task.st.SliceLeft <= 0
	m.execCommitCPU(c, t)
	if blocked {
		m.execSpeed[c] = 0 // idle from t+1, on its own clock
		m.shrinkWindow(task.wakeAtMS-1, HorizonWake)
	}
	m.feedW[c] = m.holdRatePowers(c)
	newFeed := m.metricFeedW(c)
	changed := newFeed != feed
	if m.qstats != nil {
		switch {
		case blocked:
			m.qstats.Interior[HorizonStop]++
		case crossing || changed:
			m.qstats.Interior[HorizonRate]++
		}
		if sliceEnds && !blocked {
			m.qstats.Interior[HorizonSlice]++
		}
	}
	if sampleW, eager := m.startPiece(c, t+1, throttled, true); eager {
		m.recheckEager(c, p, t+1, feed, sampleW)
		return
	}
	if changed {
		m.recheckFeed(c, t+1, feedRose(feed, newFeed, newFeed))
	}
	if m.truePower[c] != trueW {
		m.recheckUnits(p, t+1)
	}
}

// sliceHolds reports whether CPU c's local boundary, in package p,
// takes popLocal's fast path: it is a same-task slice expiry at which
// nothing but the slice changes. That holds when no crossing tick is
// staged there, the running task's rates hold strictly past it
// (sliceOnly: the rate horizon from the piece's start exceeds the
// piece, so a phase or noise epoch ending exactly on the boundary takes
// the slow path), and p was already settled in this window, so the
// powers it holds are its CPUs' current ones (the first settle holds
// the rate powers of the window's first pieces). Machines with §7 unit
// hotspots keep the slow path: their unit re-check reads the package
// settled to the boundary.
func (m *Machine) sliceHolds(c, p int) bool {
	return m.sliceOnly[c] && m.p6stat[c] == 0 && m.unitPowerW == nil && m.pkgClockOf(p) > m.qStartMS
}

// replayGovEval replays, at CPU c's local boundary t, the utilization-
// window restart of a governor evaluation due there. The evaluation is
// a provable no-op (the planner's solves and re-checks, govFirstAct),
// and addBusy leaves the restart to phase 8b only for a quantum's last
// tick. Right after a slice expiry's re-dispatch it reads no
// instantaneous power, and the thermal governor then holds the P-state
// whenever the CPU has a budget, so the solve's prediction at the rate
// power still covers it.
func (m *Machine) replayGovEval(c int, t int64) {
	if m.govPeriod > 0 && m.wheel.GovDue(t, c) {
		m.Sched.Util[c].ReplayObserve(t, t)
	}
}

// recheckEager re-checks the predictions after CPU c's crossing tick
// from, which its next piece ran ahead (eagerTick): the tick folded
// sampleW into c's metric and the rates after it set its new feed,
// where feed was the feed of the piece before. Unless the tick ended
// the window, the feed's re-checks run, the hot walk only if the
// sample or the new feed rose above feed, and so do the unit re-checks
// of c's package p, whose true power changed with the tick.
func (m *Machine) recheckEager(c, p int, from int64, feed, sampleW float64) {
	if from >= m.winEnd {
		return
	}
	m.recheckFeed(c, from, feedRose(feed, sampleW, m.metricFeedW(c)))
	m.recheckUnits(p, from)
}

// feedRose reports whether a CPU's metric samples from a re-check on
// may exceed old, the feed the window's hot walks last assumed or one
// below it: the first sample (a crossing tick's, or else the new
// feed's) or the new feed is above old. Otherwise recheckFeed skips
// the hot walk.
func feedRose(old, firstW, newW float64) bool { return firstW > old || newW > old }

// recheckFeed re-checks, from tick from on, the window's predictions
// that read CPU c's metric feed, now that it changed: c's thermal-
// governor evaluations, the flip of c's scalar throttle group and,
// when rising, the hot checks of c's core. Each may end the window
// earlier, at the first one that could act.
//
// The hot walk needs no re-run unless the feed rose (rising, from
// feedRose: the sample at from, a crossing tick's or the new feed's,
// or the new feed is above the feed it replaces). Every check of the
// core through the window's end was ruled out under the old feed: its
// source sum stays below the trigger, or under the ceiling the
// destination floor clears. The source sum is monotone in each CPU's
// samples, a crossing tick's sample is compared itself (it lies
// between the feeds around it when one epoch ends in the tick), and
// the floor reads no feed, so under samples no higher every check
// stays ruled out, and the window's end cannot move. A skip compares
// with the feed it replaces, which is at most the one the last walk
// assumed. A local stop's idle feed is such a fall: the blocked CPU's
// own check needs a running task, its core's sum falls, and every other
// core's floor holds whatever the feeds. The governor and throttle
// re-checks run on every change: they act on falling metrics too. The
// hot walk goes no further than the window's hot walk has (hotWalked):
// the ticks past it are walked later, at the feeds then current.
func (m *Machine) recheckFeed(c int, from int64, rising bool) {
	if m.govThermal() {
		m.shrinkWindow(m.govFirstAct(c, from), HorizonGovernor)
	}
	if m.throttles != nil {
		if end, ok := m.throttleFlipBound(m.throttleOf(c), from); ok {
			m.shrinkWindow(end, HorizonThrottle)
		}
	}
	if !rising || !m.Sched.Cfg.HotTaskMigration {
		return
	}
	core := int(m.Topo.CoreOf[c])
	var cs coreSum // built once, for the first CPU that needs it
	for _, d32 := range m.Topo.CPUsOfCore(core) {
		d := int(d32)
		if !(m.Sched.Power[d].MaxPower > 0) || !m.hotCheckEligible(d) {
			continue // its check does nothing
		}
		if cs.q == 0 {
			cs = m.hotCoreSumW(core)
		}
		for t := m.wheel.NextHot(from, d); t < m.winEnd && t <= m.hotWalked; t = m.wheel.NextHot(t+1, d) {
			if why, ok := m.hotCheckAt(d, t, cs); ok {
				m.shrinkWindow(t, why)
				break
			}
		}
	}
}

// settleLivePackage integrates live package p's core nodes, and their
// unit hotspots against them, from the package's clock to tick to
// (exclusive) at the current true powers of its CPUs — each CPU's power
// over its current piece — and checks the peak temperature at the end:
// with constant input the response is monotone, and every power change
// in the package comes at a pop that settles it first. A piece's powers
// are set when it starts inside the window (popLocal) or runs ahead
// (eagerTick); the window's first pieces take theirs here, when the
// package is first settled, with the feed from the same read of the
// rates if no prediction read it yet.
func (m *Machine) settleLivePackage(p int, to int64) {
	from := m.pkgClockOf(p)
	if to <= from {
		return
	}
	fdt := float64(to - from)
	first := from == m.qStartMS
	cores := m.Cfg.Layout.Cores()
	for core := p * cores; core < (p+1)*cores; core++ {
		sum := 0.0
		for _, c32 := range m.Topo.CPUsOfCore(core) {
			c := int(c32)
			if first && m.clockOf(c) == m.qStartMS {
				ew := m.holdRatePowers(c)
				if math.IsNaN(m.feedW[c]) {
					m.feedW[c] = ew
				}
			}
			sum += m.truePower[c]
		}
		m.corePower[core] = sum
	}
	for core := p * cores; core < (p+1)*cores; core++ {
		n := m.nodes[core]
		eff := m.coupledEffPower(m.corePower, core)
		start := n.TempC
		n.StepDecay(eff, m.thermDecayFor(core, fdt))
		if n.TempC > m.peakTempC {
			m.peakTempC = n.TempC
		}
		if m.unitNodes != nil {
			m.stepUnits(core, to-from, start, eff)
		}
	}
	m.pkgSettledMS[p] = to
}

// thermDecayFor returns core's node retention over fdt milliseconds,
// through the machine-wide table when every node shares one time
// constant and the node's own cache otherwise. Both equal
// Properties.Decay for the step, bit for bit.
func (m *Machine) thermDecayFor(core int, fdt float64) float64 {
	if !m.decayShared {
		return m.nodes[core].DecayFor(fdt)
	}
	if d, ok := m.decayTab.lookup(fdt); ok {
		return d
	}
	d := m.nodes[0].Props.Decay(fdt)
	m.decayTab.store(fdt, d)
	return d
}

// pieceSlots is the number of keyed slots of a pieceTable, a power of
// two, and pieceDirect the longest length it indexes directly.
const (
	pieceSlots  = 16
	pieceDirect = 64
)

// pieceTable memoizes a function of a piece's length in whole
// milliseconds. Lengths 1…pieceDirect index their own value, 0 marking
// an empty entry: short pieces dominate the lookups (one-tick crossing
// pieces and slices cut by local events), and in a shared slot any
// length ≡ 1 (mod pieceSlots) would evict the length 1. Longer lengths
// are direct-mapped: slot dt mod pieceSlots holds the last such length
// stored and its value, a zero length marking an empty slot. Lengths
// below one or not whole are never stored or found, so their callers
// compute afresh. The values are the function's own, so a hit returns
// exactly what a fresh computation would.
type pieceTable struct {
	direct [pieceDirect]float64
	dt     [pieceSlots]int64
	v      [pieceSlots]float64
}

// lookup returns the value stored for a length of fdt ms, if any.
func (t *pieceTable) lookup(fdt float64) (float64, bool) {
	dt := int64(fdt)
	if dt <= 0 || float64(dt) != fdt {
		return 0, false
	}
	if dt <= pieceDirect {
		v := t.direct[dt-1]
		return v, v != 0
	}
	i := dt & (pieceSlots - 1)
	if t.dt[i] != dt {
		return 0, false
	}
	return t.v[i], true
}

// store records v as the value for a length of fdt ms.
func (t *pieceTable) store(fdt, v float64) {
	dt := int64(fdt)
	if dt <= 0 || float64(dt) != fdt {
		return
	}
	if dt <= pieceDirect {
		t.direct[dt-1] = v
		return
	}
	i := dt & (pieceSlots - 1)
	t.dt[i], t.v[i] = dt, v
}
