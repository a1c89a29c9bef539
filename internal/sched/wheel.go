package sched

import "math"

// Stagger offsets of the periodic scheduler work, in milliseconds per
// CPU index. The original lockstep loop spread the per-CPU balancer and
// hot-check invocations with these offsets via modulo checks on every
// tick; the deadline wheel computes the same instants directly so the
// async engine can jump straight to the next one.
const (
	// BalanceStaggerMS staggers the periodic balancer across CPUs.
	BalanceStaggerMS = 7
	// HotStaggerMS staggers the hot-task-migration checks across CPUs.
	HotStaggerMS = 3
	// IdlePullPeriodMS is the interval at which an idle CPU attempts to
	// pull work (Linux-style idle rebalance), staggered by the CPU
	// index itself.
	IdlePullPeriodMS = 10
	// GovStaggerMS staggers the DVFS governor evaluations across CPUs.
	GovStaggerMS = 11
)

// NoDeadline is returned when a deadline class is disabled.
const NoDeadline = int64(math.MaxInt64)

// Wheel is the deadline scheduler for the scheduler's staggered
// periodic work: periodic balancing, hot-task checks, idle pulls, and
// DVFS governor evaluations. Each class of work for CPU c is due at
// every time T with
//
//	(T + stagger·c) mod period == 0,
//
// exactly the instants the 1 ms lockstep loop hits with its per-tick
// modulo checks. Unattached, the wheel answers the per-CPU questions
// "is CPU c due at T?" and "when is CPU c next due?" — the lockstep
// engine's reference path. Attached to a scheduler
// (Scheduler.AttachDeadlines, see deadlines.go), it additionally
// answers the machine-wide questions the event-driven engines plan and
// fire from in O(1): the next due instant of each class, and the exact
// CPU set due at a given instant. Its periods are fixed at NewWheel;
// once attached, the scheduler's occupancy ledger re-arms it after
// every runqueue mutation. It keeps no occupancy counts of its own.
type Wheel struct {
	balP int64
	hotP int64
	govP int64

	// Event-driven deadline-scheduler state (see deadlines.go); zero
	// until AttachDeadlines.
	nowMS int64
	// Static residue tables of the machine-wide classes (nil when the
	// class is disabled).
	balTab, hotTab, idleTab, govTab *dueTable
	// Per-CPU armed deadlines of the occupancy-gated classes, on
	// lazy-deletion min-heaps; hotAt/govAt hold each CPU's armed
	// instant (-1 disarmed) and identify stale heap entries.
	hotQ, govQ   *EventQueue
	hotAt, govAt []int64
	hotEligible  []bool
	// Stats counts the deadline scheduler's event traffic.
	Stats DeadlineStats
}

// NewWheel builds the wheel from the policy's periods (fractional
// periods are truncated to whole milliseconds, as the lockstep loop
// always did) and the DVFS governor evaluation period, which is 0 when
// no governor needs evaluating. The scheduler policy itself has no DVFS
// knobs.
func NewWheel(cfg Config, govPeriodMS int64) *Wheel {
	return &Wheel{balP: int64(cfg.BalancePeriodMS), hotP: int64(cfg.HotCheckPeriodMS), govP: govPeriodMS}
}

// nextAt returns the smallest T ≥ now with (T + off) mod period == 0.
func nextAt(now, period, off int64) int64 {
	r := (now + off) % period
	if r == 0 {
		return now
	}
	return now + period - r
}

// BalanceDue reports whether CPU cpu's periodic balance is due at now.
func (w *Wheel) BalanceDue(now int64, cpu int) bool {
	return w.balP > 0 && (now+int64(cpu)*BalanceStaggerMS)%w.balP == 0
}

// HotDue reports whether CPU cpu's hot-task check is due at now.
func (w *Wheel) HotDue(now int64, cpu int) bool {
	return w.hotP > 0 && (now+int64(cpu)*HotStaggerMS)%w.hotP == 0
}

// IdlePullDue reports whether CPU cpu's idle pull is due at now.
func (w *Wheel) IdlePullDue(now int64, cpu int) bool {
	return (now+int64(cpu))%IdlePullPeriodMS == 0
}

// NextBalance returns the next time ≥ now at which CPU cpu's periodic
// balance is due, or NoDeadline when balancing is disabled.
func (w *Wheel) NextBalance(now int64, cpu int) int64 {
	if w.balP <= 0 {
		return NoDeadline
	}
	return nextAt(now, w.balP, int64(cpu)*BalanceStaggerMS)
}

// NextHot returns the next time ≥ now at which CPU cpu's hot-task check
// is due, or NoDeadline when hot checks are disabled.
func (w *Wheel) NextHot(now int64, cpu int) int64 {
	if w.hotP <= 0 {
		return NoDeadline
	}
	return nextAt(now, w.hotP, int64(cpu)*HotStaggerMS)
}

// NextIdlePull returns the next time ≥ now at which CPU cpu's idle pull
// is due.
func (w *Wheel) NextIdlePull(now int64, cpu int) int64 {
	return nextAt(now, IdlePullPeriodMS, int64(cpu))
}

// GovDue reports whether CPU cpu's DVFS governor evaluation is due at
// now.
func (w *Wheel) GovDue(now int64, cpu int) bool {
	return w.govP > 0 && (now+int64(cpu)*GovStaggerMS)%w.govP == 0
}

// NextGov returns the next time ≥ now at which CPU cpu's governor
// evaluation is due, or NoDeadline when DVFS is not configured.
func (w *Wheel) NextGov(now int64, cpu int) int64 {
	if w.govP <= 0 {
		return NoDeadline
	}
	return nextAt(now, w.govP, int64(cpu)*GovStaggerMS)
}

// TotalQueued returns the number of waiting (non-running) tasks across
// all runqueues by a full scan. When zero, every balancing pass —
// periodic, idle pull, and unit exchange alike — is provably a no-op
// (there is nothing to pull or swap). The async engine gates on the
// occupancy ledger's QueuedCount instead; this scan is the reference
// the oracle checks that count against, and feeds the machine
// snapshot.
func (s *Scheduler) TotalQueued() int {
	n := 0
	for _, rq := range s.RQs {
		n += len(rq.Queued())
	}
	return n
}
