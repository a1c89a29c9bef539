package sched

// This file turns the Wheel's static stagger grid into an event-driven
// deadline *scheduler*: instead of asking "when is CPU c's next
// deadline?" for every CPU on every quantum plan (an O(nCPU) sweep that
// dominated fully-idle steps at 256 CPUs), the attached wheel answers
// two machine-wide questions in O(1):
//
//	"when is the next deadline of class X at or after T?"   (planning)
//	"which CPUs have a class-X deadline exactly at T?"      (firing)
//
// The four deadline classes fall into two camps:
//
//   - Balance and idle-pull deadlines are gated machine-wide (they are
//     provably no-ops with zero queued tasks) but never per CPU, and
//     their instants are a fixed function of the CPU index. Both
//     questions are therefore answered by static residue tables built
//     once at attach time: for every residue r = T mod period, the
//     delta to the next due instant and the ascending list of CPUs due.
//     Nothing is ever armed, re-armed, or popped for these classes.
//
//   - Hot-check and governor deadlines are gated per CPU (hot checks
//     act only on single-task CPUs with a power budget, governors only
//     on occupied CPUs), so each CPU's deadline is *armed* onto a
//     lazy-deletion EventQueue when its runqueue enters the relevant
//     state and lazily dropped when it leaves. The planner peeks the
//     earliest armed entry; entries whose instant has passed (the
//     quantum ended on them and the CPU stayed armed) are re-armed on
//     the exact stagger grid, so deadline instants are bit-identical to
//     the lockstep loop's modulo checks. Firing still consults the
//     static grid (the due lists), never the heap — the heap exists
//     only to bound the planner's horizon (for hot checks and thermal-
//     governor evaluations, the instant from which the planner walks
//     the grid looking for one that could act), so a stale or duplicate entry can cost a too-short
//     quantum or a longer walk but never a wrong decision.
//
// Arming transitions are driven by the runqueue occupancy ledger: every
// runqueue mutation shifts the ledger (Runqueue.changed), which then
// re-arms the mutated CPU on the attached wheel. The same ledger keeps
// the machine-wide queued-task and idle-CPU counts that the planner and
// the async engine's firing loop gate on (Scheduler.QueuedCount,
// IdleCPUCount). A parked CPU has an empty runqueue, so it keeps no hot
// or governor deadline armed; its balance/idle-pull instants live only
// in the static tables and cost nothing until a queued task makes the
// class relevant again. When work lands on a settled CPU, the enqueue
// re-arms its per-CPU classes in the same call.
//
// The wheel must be attached (Scheduler.AttachDeadlines) before any of
// the event-driven queries are used; the modulo Due/Next methods keep
// working unattached and remain the lockstep engine's reference path.

// MaxPeriodMS bounds the period of every deadline class: the residue
// tables hold one entry per millisecond of the period, and the machine
// rejects longer balance, hot-check, and governor periods.
const MaxPeriodMS = 1 << 16

// DeadlineStats counts the deadline scheduler's event traffic — a
// diagnostic for the planner's cost, not part of the simulation state
// (and deliberately absent from the event trace, which must stay
// byte-identical across engines).
type DeadlineStats struct {
	// HotArms / GovArms count deadline events pushed when a CPU entered
	// the class's armed state.
	HotArms, GovArms int64
	// HotRearms / GovRearms count past deadlines pushed forward on the
	// stagger grid by the planner's lazy refresh.
	HotRearms, GovRearms int64
	// HotStale / GovStale count lazily discarded entries whose CPU left
	// the armed state (or re-armed under a newer instant).
	HotStale, GovStale int64
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

// AttachDeadlines wires the wheel into the scheduler as its event-driven
// deadline scheduler: it arms the wheel from the current occupancy, and
// from here on the occupancy ledger re-arms each mutated CPU's hot and
// governor deadlines. The machine attaches after the per-CPU power
// trackers are installed (hot eligibility reads MaxPower), and again
// after a checkpoint restore.
func (s *Scheduler) AttachDeadlines(w *Wheel) {
	w.attach(s)
	s.ledger.wheel = w
}

func (w *Wheel) attach(s *Scheduler) {
	n := len(s.RQs)
	w.balTab = newDueTable(w.balP, BalanceStaggerMS, n)
	w.hotTab = newDueTable(w.hotP, HotStaggerMS, n)
	w.idleTab = newDueTable(IdlePullPeriodMS, 1, n)
	w.govTab = newDueTable(w.govP, GovStaggerMS, n)
	w.hotQ = NewEventQueue(n)
	w.govQ = NewEventQueue(n)
	w.hotAt = make([]int64, n)
	w.govAt = make([]int64, n)
	w.hotEligible = make([]bool, n)
	hotOn := s.Cfg.HotTaskMigration && w.hotP > 0
	for c := 0; c < n; c++ {
		w.hotAt[c], w.govAt[c] = -1, -1
		w.hotEligible[c] = hotOn && s.Power[c] != nil && s.Power[c].MaxPower > 0
	}
	for c, rq := range s.RQs {
		w.refreshArming(c, rq)
	}
}

// SetNow advances the scheduler's notion of simulated time, from which
// freshly armed deadlines are computed. The machine calls it whenever
// its clock moves (quantum start and quantum end); time never goes
// backwards.
func (w *Wheel) SetNow(nowMS int64) { w.nowMS = nowMS }

// refreshArming arms or disarms CPU c's hot-check and governor
// deadlines to match its runqueue state. Disarming is lazy (the heap
// entry is recognized as stale when it surfaces); arming pushes the
// next on-grid instant.
func (w *Wheel) refreshArming(c int, rq *Runqueue) {
	if w.hotEligible[c] {
		if want, armed := rq.Len() == 1, w.hotAt[c] >= 0; want != armed {
			if want {
				at := nextAt(w.nowMS, w.hotP, int64(c)*HotStaggerMS)
				w.hotAt[c] = at
				w.hotQ.Push(at, c)
				w.Stats.HotArms++
			} else {
				w.hotAt[c] = -1
			}
		}
	}
	if w.govP > 0 {
		if want, armed := rq.Current != nil, w.govAt[c] >= 0; want != armed {
			if want {
				at := nextAt(w.nowMS, w.govP, int64(c)*GovStaggerMS)
				w.govAt[c] = at
				w.govQ.Push(at, c)
				w.Stats.GovArms++
			} else {
				w.govAt[c] = -1
			}
		}
	}
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

// NextHotDeadline returns the earliest armed hot-check deadline ≥ now,
// or NoDeadline when no CPU is in the hot-checkable state (single task,
// power budget installed). Stale entries are discarded and past
// entries of still-armed CPUs re-armed on the stagger grid.
func (w *Wheel) NextHotDeadline(now int64) int64 {
	return w.nextArmed(now, w.hotQ, w.hotAt, w.hotP, HotStaggerMS,
		&w.Stats.HotStale, &w.Stats.HotRearms)
}

// NextGovDeadline returns the earliest armed governor deadline ≥ now,
// or NoDeadline when no CPU is occupied (or DVFS is off).
func (w *Wheel) NextGovDeadline(now int64) int64 {
	if w.govP <= 0 {
		return NoDeadline
	}
	return w.nextArmed(now, w.govQ, w.govAt, w.govP, GovStaggerMS,
		&w.Stats.GovStale, &w.Stats.GovRearms)
}

func (w *Wheel) nextArmed(now int64, q *EventQueue, armedAt []int64, period, stagger int64, stale, rearms *int64) int64 {
	for {
		at, c, ok := q.Peek()
		if !ok {
			return NoDeadline
		}
		if armedAt[c] != at {
			q.Pop() // disarmed, or re-armed under a newer instant
			*stale++
			continue
		}
		if at >= now {
			return at
		}
		// The quantum ended on this deadline and the CPU stayed armed:
		// push it forward to the next on-grid instant.
		q.Pop()
		nat := nextAt(now, period, int64(c)*stagger)
		armedAt[c] = nat
		q.Push(nat, c)
		*rearms++
	}
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
