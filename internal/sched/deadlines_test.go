package sched

import (
	"testing"

	"energysched/internal/topology"
)

// The residue tables must agree exactly with the modulo grid for every
// (period, stagger, nCPU) shape — including staggers at and beyond the
// period, where the per-CPU offsets wrap.
func TestDueTableMatchesModulo(t *testing.T) {
	for _, period := range []int64{1, 3, 7, 10, 100, 250} {
		for _, stagger := range []int64{0, 1, 3, 7, 11, 250, 251, 1000} {
			for _, n := range []int{1, 3, 16, 40} {
				tab := newDueTable(period, stagger, n)
				if tab == nil {
					t.Fatalf("table (p=%d s=%d n=%d) not built", period, stagger, n)
				}
				for now := int64(0); now < 3*period; now++ {
					var want []int32
					for c := 0; c < n; c++ {
						if (now+int64(c)*stagger)%period == 0 {
							want = append(want, int32(c))
						}
					}
					got := tab.due(now)
					if len(got) != len(want) {
						t.Fatalf("due(%d) p=%d s=%d n=%d: got %v want %v", now, period, stagger, n, got, want)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("due(%d) p=%d s=%d n=%d: got %v want %v", now, period, stagger, n, got, want)
						}
					}
					// nextFrom == min over CPUs of the per-CPU next.
					wantNext := NoDeadline
					for c := 0; c < n; c++ {
						if d := nextAt(now, period, int64(c)*stagger); d < wantNext {
							wantNext = d
						}
					}
					if got := tab.nextFrom(now); got != wantNext {
						t.Fatalf("nextFrom(%d) p=%d s=%d n=%d: got %d want %d", now, period, stagger, n, got, wantNext)
					}
				}
			}
		}
	}
}

// attachedSched builds a 4-CPU scheduler with the deadline scheduler
// attached and every CPU's power tracker installed (hot eligibility
// reads MaxPower).
func attachedSched(cfg Config) (*Scheduler, *Wheel) {
	s := newSched(smp4(), cfg)
	w := NewWheel(cfg)
	s.AttachDeadlines(w)
	return s, w
}

// bruteQueued and bruteIdle are the scan-based references for the
// incrementally maintained counters.
func bruteQueued(s *Scheduler) int {
	n := 0
	for _, rq := range s.RQs {
		n += len(rq.Queued())
	}
	return n
}

func bruteIdle(s *Scheduler) int {
	n := 0
	for _, rq := range s.RQs {
		if rq.Idle() {
			n++
		}
	}
	return n
}

// checkCounters asserts the maintained counters match the scans.
func checkCounters(t *testing.T, s *Scheduler, w *Wheel, at string) {
	t.Helper()
	if got, want := w.QueuedCount(), bruteQueued(s); got != want {
		t.Fatalf("%s: QueuedCount = %d, want %d", at, got, want)
	}
	if got, want := w.IdleCPUCount(), bruteIdle(s); got != want {
		t.Fatalf("%s: IdleCPUCount = %d, want %d", at, got, want)
	}
}

// Every runqueue mutation — enqueue, dispatch, deschedule (with and
// without requeue), unlink, migration — must keep the machine-wide
// queued/idle counters in lockstep with a full scan.
func TestDeadlineCountersTrackMutations(t *testing.T) {
	s, w := attachedSched(DefaultConfig())
	checkCounters(t, s, w, "fresh")

	a, b, c := mkTask(1, 50), mkTask(2, 20), mkTask(3, 30)
	s.RQ(0).Enqueue(a)
	checkCounters(t, s, w, "enqueue a")
	s.RQ(0).Enqueue(b)
	s.RQ(1).Enqueue(c)
	checkCounters(t, s, w, "enqueue b,c")
	s.RQ(0).PickNext()
	s.RQ(1).PickNext()
	checkCounters(t, s, w, "dispatch")
	s.RQ(0).Deschedule(true) // slice rotation: back to the queue
	checkCounters(t, s, w, "rotate")
	s.RQ(0).PickNext()
	checkCounters(t, s, w, "redispatch")
	s.Migrate(a, 2, MigrateLoad) // queued task moves CPUs
	checkCounters(t, s, w, "migrate queued")
	s.Migrate(c, 3, MigrateHot) // running task moves CPUs
	checkCounters(t, s, w, "migrate running")
	s.RQ(0).Deschedule(false) // block: leaves the machine
	checkCounters(t, s, w, "block")
}

// NextHotDeadline must equal the minimum per-CPU NextHot over exactly
// the hot-checkable CPUs (single task, budget installed), follow
// occupancy transitions, and re-arm past instants on the stagger grid.
func TestDeadlineHotArming(t *testing.T) {
	s, w := attachedSched(DefaultConfig())
	if got := w.NextHotDeadline(0); got != NoDeadline {
		t.Fatalf("idle machine NextHotDeadline = %d, want NoDeadline", got)
	}

	// One occupied CPU: its own staggered instant, nobody else's.
	a := mkTask(1, 50)
	s.RQ(2).Enqueue(a)
	s.RQ(2).PickNext()
	if got, want := w.NextHotDeadline(0), w.NextHot(0, 2); got != want {
		t.Fatalf("NextHotDeadline = %d, want CPU 2's %d", got, want)
	}

	// A second task on the same CPU leaves energy balancing in charge:
	// the hot deadline disarms.
	b := mkTask(2, 20)
	s.RQ(2).Enqueue(b)
	if got := w.NextHotDeadline(0); got != NoDeadline {
		t.Fatalf("two-task CPU still hot-armed: %d", got)
	}
	s.RQ(2).RemoveQueued(b)
	if got, want := w.NextHotDeadline(0), w.NextHot(0, 2); got != want {
		t.Fatalf("re-armed NextHotDeadline = %d, want %d", got, want)
	}

	// Past instants are pushed forward on the exact grid.
	w.SetNow(1_000)
	now := int64(1_234)
	if got, want := w.NextHotDeadline(now), w.NextHot(now, 2); got != want {
		t.Fatalf("re-armed past deadline = %d, want on-grid %d", got, want)
	}
	if !w.HotDue(w.NextHotDeadline(now), 2) {
		t.Fatal("re-armed hot deadline is off the stagger grid")
	}
}

// A governor period installed after attach arms occupied CPUs; setting
// it to zero mid-run disarms everything and stays silent.
func TestDeadlineGovPeriodToggledMidRun(t *testing.T) {
	s, w := attachedSched(DefaultConfig())
	a := mkTask(1, 40)
	s.RQ(1).Enqueue(a)
	s.RQ(1).PickNext()
	if got := w.NextGovDeadline(0); got != NoDeadline {
		t.Fatalf("no governor period, but NextGovDeadline = %d", got)
	}

	w.SetGovPeriod(20)
	if got, want := w.NextGovDeadline(0), w.NextGov(0, 1); got != want {
		t.Fatalf("NextGovDeadline = %d, want CPU 1's %d", got, want)
	}
	if due := w.GovDueCPUs(w.NextGov(0, 1)); len(due) != 1 || due[0] != 1 {
		t.Fatalf("GovDueCPUs = %v, want [1]", due)
	}

	// Disabled mid-run: armed deadlines drop (lazily) and new
	// occupancy arms nothing.
	w.SetGovPeriod(0)
	if got := w.NextGovDeadline(0); got != NoDeadline {
		t.Fatalf("disabled governor still reports %d", got)
	}
	s.RQ(3).Enqueue(mkTask(2, 10))
	s.RQ(3).PickNext()
	if got := w.NextGovDeadline(0); got != NoDeadline {
		t.Fatalf("disabled governor armed a new CPU: %d", got)
	}

	// Re-enabled: the occupied CPUs re-arm on the new grid.
	w.SetGovPeriod(40)
	want := w.NextGov(0, 1)
	if d := w.NextGov(0, 3); d < want {
		want = d
	}
	if got := w.NextGovDeadline(0); got != want {
		t.Fatalf("re-enabled NextGovDeadline = %d, want %d", got, want)
	}
}

// Two classes landing on the same instant for the same CPU must both
// appear in that instant's due sets — the firing loop resolves the tie
// (balance shadows idle pull) exactly like the lockstep modulo scan.
func TestDeadlineSameInstantTie(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BalancePeriodMS = IdlePullPeriodMS // 10 ms: classes collide
	cfg.HotCheckPeriodMS = IdlePullPeriodMS
	s, w := attachedSched(cfg)
	// CPU 0 has stagger offset 0 in every class: at t = 10 all three
	// classes are due simultaneously.
	const at = int64(IdlePullPeriodMS)
	if !w.BalanceDue(at, 0) || !w.IdlePullDue(at, 0) || !w.HotDue(at, 0) {
		t.Fatal("test premise broken: classes do not collide at t=10")
	}
	has := func(l []int32, c int32) bool {
		for _, v := range l {
			if v == c {
				return true
			}
		}
		return false
	}
	if !has(w.BalanceDueCPUs(at), 0) || !has(w.IdlePullDueCPUs(at), 0) || !has(w.HotDueCPUs(at), 0) {
		t.Fatalf("due lists at %d miss CPU 0: bal=%v idle=%v hot=%v",
			at, w.BalanceDueCPUs(at), w.IdlePullDueCPUs(at), w.HotDueCPUs(at))
	}
	// The planner horizon agrees with the per-CPU scan under the tie.
	s.RQ(0).Enqueue(mkTask(1, 50))
	s.RQ(0).PickNext()
	if got, want := w.NextHotDeadline(1), w.NextHot(1, 0); got != want {
		t.Fatalf("tied NextHotDeadline = %d, want %d", got, want)
	}
}

// Unattached wheels (the lockstep reference path) must keep serving the
// modulo grid without any deadline-scheduler state.
func TestWheelUnattachedStillServesGrid(t *testing.T) {
	w := NewWheel(DefaultConfig())
	if !w.BalanceDue(0, 0) || w.NextHot(5, 1) < 5 {
		t.Fatal("unattached wheel grid broken")
	}
	// Runqueues without a notify target must not panic.
	rq := NewRunqueue(topology.CPUID(0))
	rq.Enqueue(mkTask(9, 10))
	rq.PickNext()
	rq.Deschedule(false)
}
