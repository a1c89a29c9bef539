package sched

// This file gives the Wheel's static stagger grid two machine-wide
// answers per deadline class, in O(1), from residue tables built once
// by NewWheel:
//
//	"when is the next deadline of class X at or after T?"   (planning)
//	"which CPUs have a class-X deadline exactly at T?"      (firing)
//
// Each class's instants are a fixed function of the CPU index, so for
// every residue r = T mod period the tables hold the delta to the next
// due instant and the ascending list of CPUs due. Nothing is armed,
// re-armed or popped.
//
// The classes are gated differently, and the gates stay with the
// caller, read live where they hold:
//
//   - Balance and idle-pull passes are provable no-ops while no task
//     waits anywhere, a machine-wide gate (Scheduler.QueuedCount,
//     IdleCPUCount), so the planner asks the tables' next instant only
//     while it is open.
//   - Hot checks act only on single-task CPUs with a power budget, and
//     governors only on occupied CPUs: per-CPU gates. The planner takes
//     the minimum of the per-CPU NextHot or NextGov over the CPUs whose
//     gate is open, which it walks anyway, and firing re-checks each
//     gate at the due CPU.

// MaxPeriodMS bounds the period of every deadline class: the residue
// tables hold one entry per millisecond of the period, and the machine
// rejects longer balance, hot-check, and governor periods.
const MaxPeriodMS = 1 << 16

// DeadlineStats holds six deadline event-traffic counters that the
// static grid never increments.
//
// Deprecated: kept only because the repository benchmark
// (bench/traced.go) still reports its six fields, which read 0. It goes
// when the benchmark drops its sched.deadline.* rows.
type DeadlineStats struct {
	HotArms, GovArms    int64
	HotRearms           int64
	HotStale            int64
	GovRearms, GovStale int64
}

// dueTable answers both deadline-class questions for a fixed (period,
// stagger, nCPU) grid, keyed by the residue T mod period.
type dueTable struct {
	period int64
	// next[r] is the delta from a time with residue r to the nearest
	// instant at which any CPU is due.
	next []int32
	// cpus[idx[r]:idx[r+1]] lists, ascending, the CPUs due at residue r.
	idx  []int32
	cpus []int32
}

// dueResidue returns the residue class at which CPU c is due: the
// instants T with (T + stagger·c) mod period == 0.
func dueResidue(period, stagger int64, c int) int64 {
	return (period - (int64(c)*stagger)%period) % period
}

// newDueTable builds the residue tables, or returns nil when the class
// is disabled (period ≤ 0). The period must not exceed MaxPeriodMS.
func newDueTable(period, stagger int64, n int) *dueTable {
	if period <= 0 {
		return nil
	}
	t := &dueTable{period: period}
	counts := make([]int32, period)
	for c := 0; c < n; c++ {
		counts[dueResidue(period, stagger, c)]++
	}
	t.idx = make([]int32, period+1)
	for r := int64(0); r < period; r++ {
		t.idx[r+1] = t.idx[r] + counts[r]
	}
	t.cpus = make([]int32, t.idx[period])
	fill := make([]int32, period)
	for c := 0; c < n; c++ {
		r := dueResidue(period, stagger, c)
		t.cpus[t.idx[r]+fill[r]] = int32(c)
		fill[r]++
	}
	// next deltas: one descending pass over two unrolled periods so the
	// wrap-around distance is known when the first period is filled.
	t.next = make([]int32, period)
	dist := int32(2 * MaxPeriodMS) // n == 0: nothing ever due
	for i := 2*period - 1; i >= 0; i-- {
		r := i % period
		if counts[r] > 0 {
			dist = 0
		} else {
			dist++
		}
		if i < period {
			t.next[r] = dist
		}
	}
	return t
}

// nextFrom returns the first instant ≥ now at which any CPU is due, or
// NoDeadline for a disabled (nil) class.
func (t *dueTable) nextFrom(now int64) int64 {
	if t == nil {
		return NoDeadline
	}
	return now + int64(t.next[now%t.period])
}

// due returns the ascending CPUs due exactly at now (none for a
// disabled class).
func (t *dueTable) due(now int64) []int32 {
	if t == nil {
		return nil
	}
	r := now % t.period
	return t.cpus[t.idx[r]:t.idx[r+1]]
}

// NextBalanceDeadline returns the earliest time ≥ now at which any
// CPU's periodic balance is due, or NoDeadline when balancing is
// disabled. The caller applies the machine-wide queued-task gate.
func (w *Wheel) NextBalanceDeadline(now int64) int64 { return w.balTab.nextFrom(now) }

// NextIdlePullDeadline returns the earliest time ≥ now at which any
// CPU's idle pull is due. The caller gates on queued tasks and idle
// CPUs; the instant is the minimum over all CPUs (a superset of the
// idle ones — a too-early quantum end is harmless, a missed deadline is
// not).
func (w *Wheel) NextIdlePullDeadline(now int64) int64 {
	return w.idleTab.nextFrom(now)
}

// BalanceDueCPUs returns, ascending, the CPUs whose periodic balance is
// due exactly at now (empty when balancing is disabled).
func (w *Wheel) BalanceDueCPUs(now int64) []int32 { return w.balTab.due(now) }

// IdlePullDueCPUs returns, ascending, the CPUs whose idle pull is due
// exactly at now (idleness itself is re-checked by the caller at fire
// time, as the lockstep loop does).
func (w *Wheel) IdlePullDueCPUs(now int64) []int32 { return w.idleTab.due(now) }

// HotDueCPUs returns, ascending, the CPUs whose hot check is due
// exactly at now.
func (w *Wheel) HotDueCPUs(now int64) []int32 { return w.hotTab.due(now) }

// GovDueCPUs returns, ascending, the CPUs whose governor evaluation is
// due exactly at now.
func (w *Wheel) GovDueCPUs(now int64) []int32 { return w.govTab.due(now) }
