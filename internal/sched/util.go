package sched

// UtilTracker accumulates one logical CPU's busy time between governor
// observations — the utilization input of the DVFS governors
// (internal/dvfs). The machine adds the quantum length whenever the CPU
// had a task occupying it (running, warming up, or halted by the
// throttle: demand, not progress); a governor observation reads the
// busy fraction of the window since the previous observation and
// starts a new window.
//
// Accumulation is a plain sum, so it is partition-invariant: any
// sequence of quanta covering the same busy milliseconds yields the
// same utilization — the property the cross-engine equivalence of DVFS
// decisions rests on.
type UtilTracker struct {
	busyMS  float64
	sinceMS int64
}

// AddBusy folds dtMS milliseconds of occupied time into the current
// window.
func (u *UtilTracker) AddBusy(dtMS float64) { u.busyMS += dtMS }

// Window returns the width of the current observation window at nowMS.
// A zero-width window (a governor deadline landing on the tracker's
// start) carries no signal and must not be observed — util would read
// 0 for a saturated CPU.
func (u *UtilTracker) Window(nowMS int64) int64 { return nowMS - u.sinceMS }

// IdleExit notes that an idle CPU just received work. A window holding
// no busy time at all — the CPU idled through it entirely, which
// happens because unoccupied CPUs skip their governor deadlines and
// let the window grow stale — restarts at nowMS (cpufreq's idle-exit
// reset): otherwise the first evaluation would average the new task's
// busy milliseconds over the stale idle span and read a saturated CPU
// as nearly idle, downclocking it. A window that already holds busy
// time is left alone: the idle gaps between an interactive task's
// bursts are exactly the signal the ondemand governor steps down on.
func (u *UtilTracker) IdleExit(nowMS int64) {
	if u.busyMS == 0 {
		u.sinceMS = nowMS
	}
}

// Observe returns the busy fraction of the window [sinceMS, nowMS] and
// resets the window to start at nowMS. The first observation measures
// from time 0.
func (u *UtilTracker) Observe(nowMS int64) float64 {
	window := float64(nowMS - u.sinceMS)
	util := 0.0
	if window > 0 {
		util = u.busyMS / window
		if util > 1 {
			util = 1
		}
	}
	u.busyMS = 0
	u.sinceMS = nowMS
	return util
}

// ReplayObserve leaves the window as an Observe at atMS would have,
// followed by occupied milliseconds only through nowMS: it starts at
// atMS and holds nowMS − atMS busy milliseconds. A zero-width window at
// atMS is left alone, as it is never observed (see Window). It stands
// in for observations whose result nobody reads.
func (u *UtilTracker) ReplayObserve(atMS, nowMS int64) {
	if u.Window(atMS) > 0 {
		u.busyMS = float64(nowMS - atMS)
		u.sinceMS = atMS
	}
}

// Utilization returns CPU cpu's busy fraction since its last governor
// observation (or the start) and resets the window — the scheduler's
// per-CPU utilization surface for DVFS governors.
func (s *Scheduler) Utilization(cpu int, nowMS int64) float64 {
	return s.Util[cpu].Observe(nowMS)
}
