package sched

import (
	"math/rand"
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
	w := NewWheel(cfg, 0)
	s.AttachDeadlines(w)
	return s, w
}

// bruteQueued and bruteIdle are the scan-based references for the
// occupancy ledger's machine-wide counts.
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

// checkLedger asserts the occupancy ledger — queued and idle counts,
// node and package loads — matches full runqueue scans.
func checkLedger(t *testing.T, s *Scheduler, at string) {
	t.Helper()
	if got, want := s.QueuedCount(), bruteQueued(s); got != want {
		t.Fatalf("%s: QueuedCount = %d, want %d", at, got, want)
	}
	if got, want := s.IdleCPUCount(), bruteIdle(s); got != want {
		t.Fatalf("%s: IdleCPUCount = %d, want %d", at, got, want)
	}
	l := s.Topo.Layout
	node := make([]int, l.Nodes)
	pkg := make([]int, l.NumPackages())
	for i, rq := range s.RQs {
		node[l.Node(topology.CPUID(i))] += rq.Len()
		pkg[l.Package(topology.CPUID(i))] += rq.Len()
	}
	for n, want := range node {
		if got := s.nodeTaskCount(n); got != want {
			t.Fatalf("%s: node %d load = %d, want %d", at, n, got, want)
		}
	}
	for i := range s.RQs {
		cpu := topology.CPUID(i)
		if got, want := s.packageTaskCount(cpu), pkg[l.Package(cpu)]; got != want {
			t.Fatalf("%s: CPU %d package load = %d, want %d", at, i, got, want)
		}
	}
}

// Every runqueue mutation — enqueue, dispatch, deschedule (with and
// without requeue), unlink, migration within and across nodes — must
// keep the occupancy ledger in step with full scans, whether or not a
// deadline wheel is attached. RebuildLoads must reproduce it.
func TestDeadlineCountersTrackMutations(t *testing.T) {
	for _, attach := range []bool{false, true} {
		s := newSched(topology.XSeries445(), DefaultConfig())
		if attach {
			s.AttachDeadlines(NewWheel(DefaultConfig(), 0))
		}
		checkLedger(t, s, "fresh")

		a, b, c := mkTask(1, 50), mkTask(2, 20), mkTask(3, 30)
		s.RQ(0).Enqueue(a)
		checkLedger(t, s, "enqueue a")
		s.RQ(0).Enqueue(b)
		s.RQ(1).Enqueue(c)
		checkLedger(t, s, "enqueue b,c")
		s.RQ(0).PickNext()
		s.RQ(1).PickNext()
		checkLedger(t, s, "dispatch")
		s.RQ(0).Deschedule(true) // slice rotation: back to the queue
		checkLedger(t, s, "rotate")
		s.RQ(0).PickNext()
		checkLedger(t, s, "redispatch")
		s.Migrate(a, 2, MigrateLoad) // queued task moves CPUs
		checkLedger(t, s, "migrate queued")
		s.Migrate(c, 12, MigrateHot) // running task moves across nodes
		checkLedger(t, s, "migrate running")
		s.RQ(0).Deschedule(false) // block: leaves the machine
		checkLedger(t, s, "block")
		s.RebuildLoads()
		checkLedger(t, s, "rebuild")
	}
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

// The governor period is fixed when the wheel is built. A wheel built
// with one arms the CPUs already occupied at attach (the restore path)
// and every CPU occupied later, on the period's grid; a wheel built
// with 0 arms nothing.
func TestDeadlineGovArmedAtConstruction(t *testing.T) {
	s := newSched(smp4(), DefaultConfig())
	s.RQ(1).Enqueue(mkTask(1, 40))
	s.RQ(1).PickNext()
	w := NewWheel(DefaultConfig(), 20)
	s.AttachDeadlines(w)
	if got, want := w.NextGovDeadline(0), w.NextGov(0, 1); got != want {
		t.Fatalf("NextGovDeadline = %d, want CPU 1's %d", got, want)
	}
	if due := w.GovDueCPUs(w.NextGov(0, 1)); len(due) != 1 || due[0] != 1 {
		t.Fatalf("GovDueCPUs = %v, want [1]", due)
	}

	// A CPU occupied after attach arms on the same grid.
	s.RQ(3).Enqueue(mkTask(2, 10))
	s.RQ(3).PickNext()
	want := min(w.NextGov(0, 1), w.NextGov(0, 3))
	if got := w.NextGovDeadline(0); got != want {
		t.Fatalf("two occupied CPUs: NextGovDeadline = %d, want %d", got, want)
	}
	// Leaving the CPU disarms it.
	s.RQ(1).Deschedule(false)
	if got, want := w.NextGovDeadline(0), w.NextGov(0, 3); got != want {
		t.Fatalf("after CPU 1 emptied: NextGovDeadline = %d, want CPU 3's %d", got, want)
	}

	// No governor period: occupancy arms nothing.
	s0, w0 := attachedSched(DefaultConfig())
	s0.RQ(1).Enqueue(mkTask(3, 40))
	s0.RQ(1).PickNext()
	if got := w0.NextGovDeadline(0); got != NoDeadline {
		t.Fatalf("no governor period, but NextGovDeadline = %d", got)
	}
	if due := w0.GovDueCPUs(20); len(due) != 0 {
		t.Fatalf("no governor period, but GovDueCPUs = %v", due)
	}
}

// The earliest governor deadline is the earliest next grid instant of
// an occupied CPU, whatever sequence of runqueue mutations armed and
// disarmed the CPUs, and whatever the wheel's clock read when they did.
// Brute force over random dispatches, deschedules and clock moves on a
// wheel whose period and stagger wrap across the CPUs.
func TestNextGovDeadlineMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	l := topology.Layout{Nodes: 2, PackagesPerNode: 3, CoresPerPackage: 2, ThreadsPerPackage: 2}
	for _, period := range []int64{1, 7, 20, 64} {
		s := newSched(l, DefaultConfig())
		w := NewWheel(DefaultConfig(), period)
		s.AttachDeadlines(w)
		n, id := len(s.RQs), 0
		occupied := 0
		for step := 0; step < 2000; step++ {
			rq := s.RQs[r.Intn(n)]
			switch {
			case rq.Current == nil:
				id++
				rq.Enqueue(mkTask(id, 40))
				rq.PickNext()
			case r.Intn(3) == 0:
				rq.Deschedule(true)
				rq.PickNext()
			default:
				rq.Deschedule(false)
			}
			if r.Intn(4) == 0 {
				w.SetNow(r.Int63n(10_000))
			}
			now := r.Int63n(10_000)
			want := NoDeadline
			for c, q := range s.RQs {
				if q.Current != nil {
					want = min(want, w.NextGov(now, c))
				}
			}
			if got := w.NextGovDeadline(now); got != want {
				t.Fatalf("period %d, step %d: NextGovDeadline(%d) = %d, want %d", period, step, now, got, want)
			}
			if want != NoDeadline {
				occupied++
			}
		}
		if occupied == 0 {
			t.Fatalf("period %d: no step had an occupied CPU", period)
		}
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
	w := NewWheel(DefaultConfig(), 0)
	if !w.BalanceDue(0, 0) || w.NextHot(5, 1) < 5 {
		t.Fatal("unattached wheel grid broken")
	}
	// Runqueues without an occupancy ledger must not panic.
	rq := NewRunqueue(topology.CPUID(0))
	rq.Enqueue(mkTask(9, 10))
	rq.PickNext()
	rq.Deschedule(false)
}
