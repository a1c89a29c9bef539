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
// keep the occupancy ledger in step with full scans. RebuildLoads must
// reproduce it.
func TestDeadlineCountersTrackMutations(t *testing.T) {
	s := newSched(topology.XSeries445(), DefaultConfig())
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

// Two classes landing on the same instant for the same CPU must both
// appear in that instant's due sets — the firing loop resolves the tie
// (balance shadows idle pull) exactly like the lockstep modulo scan.
func TestDeadlineSameInstantTie(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BalancePeriodMS = IdlePullPeriodMS // 10 ms: classes collide
	cfg.HotCheckPeriodMS = IdlePullPeriodMS
	w := NewWheel(cfg, 0, 4)
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
	// The planner's hot start under the tie is checked in the machine
	// package (TestFirstHotDeadlineMatchesBruteForce).
}

// The wheel serves the modulo grid with no scheduler behind it, and
// runqueues without an occupancy ledger keep working.
func TestWheelUnattachedStillServesGrid(t *testing.T) {
	w := NewWheel(DefaultConfig(), 0, 2)
	if !w.BalanceDue(0, 0) || w.NextHot(5, 1) < 5 {
		t.Fatal("wheel grid broken")
	}
	// Runqueues without an occupancy ledger must not panic.
	rq := NewRunqueue(topology.CPUID(0))
	rq.Enqueue(mkTask(9, 10))
	rq.PickNext()
	rq.Deschedule(false)
}
