package machine

import (
	"math"
	"testing"

	"energysched/internal/dvfs"
	"energysched/internal/sched"
	"energysched/internal/topology"
)

// FirePhase8 runs one async phase-8 walk with the machine's current
// tick as the quantum's end tick, on a machine stopped between runs:
// the quantum is taken to have folded in nothing yet, so the settle
// targets (the quantum start, nothing executed) agree with every live
// CPU's state. reference selects fireDueDeadlinesMerged instead of
// fireDueDeadlines. It panics on the lockstep engine, which has no
// phase-8 walk.
func (m *Machine) FirePhase8(reference bool) {
	if !m.async {
		panic("FirePhase8: lockstep engine")
	}
	m.resetPhaseMarkers()
	if reference {
		m.fireDueDeadlinesMerged(m.nowMS)
	} else {
		m.fireDueDeadlines(m.nowMS)
	}
}

// fireDueDeadlinesMerged is the reference phase-8 walk: the balance,
// idle-pull and hot due lists merged in ascending CPU order at every
// end tick, each balance and idle-pull pass gated on the live queued
// count. fireDueDeadlines must leave the machine exactly as this walk
// does.
func (m *Machine) fireDueDeadlinesMerged(endMS int64) {
	k := endMS - m.qStartMS + 1 // the end tick's place in the quantum
	bal := m.wheel.BalanceDueCPUs(endMS)
	idle := m.wheel.IdlePullDueCPUs(endMS)
	hot := m.wheel.HotDueCPUs(endMS)
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
			m.deadlineFires[fireIdlePull]++
			m.Sched.Balance(cpu)
		}
		if hotDue && !m.cpuParked(int(c)) && !m.hotDestShut(int(c), k) {
			m.deadlineFires[fireHot]++
			m.Sched.HotCheck(cpu)
		}
	}
}

// VerifyFeedCache makes every read of the cached feeds (feedW, from
// the running-task scan to the window's end) recompute estRatePowerW
// and panic when the two differ.
func (m *Machine) VerifyFeedCache() { m.verifyFeeds = true }

// MalformedImages returns the sealed images of
// TestRestoreRejectsMalformedImages' cases, which Restore rejects.
func MalformedImages(tb testing.TB) [][]byte {
	out := make([][]byte, len(malformedImageCases))
	for i := range out {
		out[i] = malformedImage(tb, i)
	}
	return out
}

// govFirstActWalk is the grid walk govFirstAct replaced: the first
// instant of CPU c's governor grid in [from, end) at which
// govEvalCouldAct says the evaluation might act, or NoDeadline.
func (m *Machine) govFirstActWalk(c int, from, end int64) int64 {
	g := m.gov.(dvfs.Thermal)
	for t := m.wheel.NextGov(from, c); t < end; t = m.wheel.NextGov(t+1, c) {
		if m.govEvalCouldAct(g, c, t) {
			return t
		}
	}
	return sched.NoDeadline
}

// govEvalCouldAct reports whether CPU c's thermal-governor evaluation
// at tick t might change its P-state, taking Evaluate's two pinned
// decisions afresh: the reference govFirstAct and its memo (govSides)
// are checked against.
func (m *Machine) govEvalCouldAct(g dvfs.Thermal, c int, t int64) bool {
	if m.Sched.RQs[c].Current == nil || m.pendingIdx[c] >= 0 {
		return false
	}
	pw := m.Sched.Power[c]
	in := dvfs.Inputs{
		InstPowerW: m.estRatePowerW(c),
		MaxPowerW:  pw.MaxPower,
		Cur:        m.freqIdx[c],
		Ladder:     m.dvfsCfg.Ladder,
	}
	down := g.DownThresholdW(in.MaxPowerW)
	in.ThermalPowerW = down
	hot := m.govTarget(in) != in.Cur
	in.ThermalPowerW = math.Nextafter(down, math.Inf(-1))
	cool := m.govTarget(in) != in.Cur
	if hot == cool {
		return hot
	}
	k := t - (m.clockOf(c) - 1)
	return metricMayCross(pw.ThermalPower(), m.metricFeedW(c), pw.RetentionPerMS(), down, hot, k)
}
