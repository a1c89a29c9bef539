package machine

import (
	"slices"

	"energysched/internal/dvfs"
	"energysched/internal/sched"
	"energysched/internal/topology"
)

// Deadline-class indices of the deadlineFires diagnostic counters.
const (
	fireBalance = iota
	fireIdlePull
	fireHot
	fireGov
)

// DeadlineFires returns how many deadline-phase passes of each class
// (balance, idle-pull, hot-check, governor) the async engine ran since
// the last ResetStats. They are a subset of the lockstep engine's
// passes: the skipped ones are provable no-ops (see fireDueDeadlines,
// clampHotChecks for the hot checks a quantum steps past, and
// govFirstAct for the thermal-governor evaluations), and every pass
// that runs decides exactly as its lockstep twin. A skipped pass counts
// nothing, whether phase 8 reached it and ruled it out or never walked
// to it (the balance and idle-pull lists while nothing is queued).
// Always zero on the lockstep engine, which fires from the historical
// modulo scan.
func (m *Machine) DeadlineFires() (balance, idlePull, hot, gov int64) {
	return m.deadlineFires[fireBalance], m.deadlineFires[fireIdlePull],
		m.deadlineFires[fireHot], m.deadlineFires[fireGov]
}

// DeadlineStats returns the zero value: the static deadline grid keeps
// no event traffic to count.
//
// Deprecated: kept only because the repository benchmark
// (bench/traced.go) still reads it. It goes when the benchmark drops
// its sched.deadline.* rows.
func (m *Machine) DeadlineStats() sched.DeadlineStats { return sched.DeadlineStats{} }

// SetQuantumStats attaches s to count every quantum stepped from now
// on, or detaches the counter when s is nil (the default: no
// attribution, no cost). ResetStats zeroes an attached counter.
func (m *Machine) SetQuantumStats(s *QuantumStats) { m.qstats = s }

// QuantumStats returns the attached quantum attribution, nil when off.
func (m *Machine) QuantumStats() *QuantumStats { return m.qstats }

// fireDueDeadlines is the async engine's phase 8: run the periodic
// balance, idle-pull, and hot-check work due exactly at endMS. The
// due-CPU lists come from the deadline wheel's static stagger grid,
// walked merged in ascending CPU order with balance shadowing idle pull
// — the lockstep engine's per-CPU modulo scan order. Of those passes it
// skips the provable no-ops: balance and idle pull only ever pull or
// swap queued tasks, so they are skipped while no task waits anywhere
// (the planner's balance gate; the count is read live, as a hot
// migration mid-phase can queue a task), and a hot check needs a
// running task, which a parked CPU lacks, and a considerably cooler
// core, which the plan's destination floor may rule out (hotDestShut).
// Idleness and hot-check applicability are re-checked live at fire
// time, exactly as the scan does.
//
// While nothing is queued, the walk visits only the hot list: every
// balance and idle-pull pass would meet the queued gate and do
// nothing, so its cost scales with the hot checks due, not with the
// grid width. A hot check can queue a task (Migrate enqueues on the
// destination; an exchange queues two), and then the merged walk
// resumes at the next CPU of all three lists — the lockstep order: the
// balance and idle-pull passes of the CPUs up to the checked one were
// due while nothing was queued, so they were no-ops.
func (m *Machine) fireDueDeadlines(endMS int64) {
	k := endMS - m.qStartMS + 1 // the end tick's place in the quantum
	bal := m.wheel.BalanceDueCPUs(endMS)
	idle := m.wheel.IdlePullDueCPUs(endMS)
	hot := m.wheel.HotDueCPUs(endMS)
	if m.Sched.QueuedCount() == 0 {
		i := 0
		for i < len(hot) && m.Sched.QueuedCount() == 0 {
			m.fireHot(hot[i], k)
			i++
		}
		if m.Sched.QueuedCount() == 0 {
			return
		}
		// hot[i-1]'s check queued a task: resume the merged walk at the
		// next CPU.
		next := hot[i-1] + 1
		b, _ := slices.BinarySearch(bal, next)
		j, _ := slices.BinarySearch(idle, next)
		bal, idle, hot = bal[b:], idle[j:], hot[i:]
	}
	bi, ii, hi := 0, 0, 0
	for bi < len(bal) || ii < len(idle) || hi < len(hot) {
		c := int32(1) << 30
		if bi < len(bal) && bal[bi] < c {
			c = bal[bi]
		}
		if ii < len(idle) && idle[ii] < c {
			c = idle[ii]
		}
		if hi < len(hot) && hot[hi] < c {
			c = hot[hi]
		}
		balDue := bi < len(bal) && bal[bi] == c
		if balDue {
			bi++
		}
		idleDue := ii < len(idle) && idle[ii] == c
		if idleDue {
			ii++
		}
		hotDue := hi < len(hot) && hot[hi] == c
		if hotDue {
			hi++
		}
		cpu := topology.CPUID(c)
		queued := m.Sched.QueuedCount() > 0
		if balDue {
			if queued {
				m.deadlineFires[fireBalance]++
				m.Sched.Balance(cpu)
				m.Sched.UnitBalance(cpu)
			}
		} else if idleDue && queued && m.Sched.RQ(cpu).Idle() {
			// Idle balancing: an idle CPU tries to pull work promptly,
			// like Linux's idle rebalance.
			m.deadlineFires[fireIdlePull]++
			m.Sched.Balance(cpu)
		}
		if hotDue {
			m.fireHot(c, k)
		}
	}
}

// fireHot runs CPU c's due hot check unless it is a provable no-op:
// c is parked (no running task) or no core can be HotDestGapW cooler
// at the quantum's k-th tick.
func (m *Machine) fireHot(c int32, k int64) {
	if m.cpuParked(int(c)) || m.hotDestShut(int(c), k) {
		return
	}
	m.deadlineFires[fireHot]++
	m.Sched.HotCheck(topology.CPUID(c))
}

// governorEval runs one due DVFS governor evaluation for an occupied
// CPU: feed the governor its utilization and power signals and, if it
// picks a different P-state, schedule the pending transition after the
// transition latency. While one is pending, further evaluations are
// skipped, as in cpufreq.
func (m *Machine) governorEval(c int, endMS int64) {
	rq := m.Sched.RQ(topology.CPUID(c))
	if rq.Current == nil {
		return
	}
	if m.Sched.Util[c].Window(endMS) <= 0 {
		// Zero-width window (a deadline at simulation start): no signal
		// yet — don't let util read 0 for a CPU that just started a
		// saturating task.
		return
	}
	util := m.Sched.Utilization(c, endMS)
	if m.pendingIdx[c] >= 0 {
		return // transition in flight; window already reset
	}
	inst := 0.0
	// ranMS > 0 rules out a dispatch freshly installed at this very
	// tick (a finish/block with immediate re-dispatch landing on the
	// governor deadline): its rates never ran a millisecond, and
	// execSpeed still describes the departed task's quantum. inst stays
	// 0 and the governor holds.
	if d := &m.dispatches[c]; d.task != nil && d.ranMS > 0 {
		inst = m.estRatePowerW(c)
	}
	want := m.govTarget(dvfs.Inputs{
		Util:          util,
		ThermalPowerW: m.Sched.Power[c].ThermalPower(),
		InstPowerW:    inst,
		MaxPowerW:     m.Sched.Power[c].MaxPower,
		Cur:           m.freqIdx[c],
		Ladder:        m.dvfsCfg.Ladder,
	})
	if want != m.freqIdx[c] {
		m.pendingIdx[c] = want
		m.pendingAt[c] = endMS + 1 + m.govLatency
		m.nPending++
	}
}

// govTarget is the P-state the governor picks for in, clamped to the
// ladder. The evaluation changes the P-state iff it differs from in.Cur.
func (m *Machine) govTarget(in dvfs.Inputs) int {
	return min(max(m.gov.Evaluate(in), 0), in.Ladder.Max())
}

// addBusy folds a quantum of dt occupied milliseconds, ending at the
// clock's tick, into CPU c's utilization window. The planner may have
// stepped over governor evaluations of c inside the quantum (see
// govFirstAct); each would have observed and restarted the window, so
// the last one, at t, is replayed: the window starts at t and holds the
// end − t milliseconds after it, all occupied since occupancy is
// constant within a quantum.
func (m *Machine) addBusy(c int, dt int64, fdt float64) {
	u := &m.Sched.Util[c]
	u.AddBusy(fdt)
	end := m.nowMS
	if t := m.wheel.NextGov(max(end-dt+1, end-m.govPeriod), c); t < end {
		u.ReplayObserve(t, end)
	}
}
