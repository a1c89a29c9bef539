package sched

import (
	"math"
	"testing"

	"energysched/internal/profile"
	"energysched/internal/topology"
	"energysched/internal/units"
)

// newSched builds a scheduler over the given layout with every CPU's
// max power set to 60 W and thermal power seeded at idle.
func newSched(l topology.Layout, cfg Config) *Scheduler {
	s := New(topology.MustNew(l), cfg)
	for i := range s.Power {
		s.Power[i] = profile.NewCPUPower(60, 0.001, 1, 13.6)
	}
	return s
}

// setTP forces a CPU's thermal power to a value (by re-seeding).
func setTP(s *Scheduler, cpu int, watts float64) {
	max := s.Power[cpu].MaxPower
	s.Power[cpu] = profile.NewCPUPower(max, 0.001, 1, watts)
}

// mkTask returns a task with a seeded profile.
func mkTask(id int, watts float64) *Task {
	return &Task{ID: id, Binary: uint64(1000 + id), Profile: profile.NewSeededTaskProfile(watts)}
}

func smp2() topology.Layout {
	return topology.Layout{Nodes: 1, PackagesPerNode: 2, ThreadsPerPackage: 1}
}

func smp4() topology.Layout {
	return topology.Layout{Nodes: 1, PackagesPerNode: 4, ThreadsPerPackage: 1}
}

func TestTimesliceFormula(t *testing.T) {
	cases := []struct {
		nice int
		ms   float64
	}{{0, 100}, {-20, 800}, {19, 5}, {10, 50}, {-10, 600}}
	for _, c := range cases {
		task := &Task{Nice: c.nice}
		if got := task.Timeslice(); got != c.ms {
			t.Errorf("Timeslice(nice %d) = %v, want %v", c.nice, got, c.ms)
		}
	}
}

func TestRunqueueBasics(t *testing.T) {
	rq := NewRunqueue(3)
	if !rq.Idle() || rq.Len() != 0 {
		t.Fatal("new runqueue not idle")
	}
	a, b := mkTask(1, 61), mkTask(2, 38)
	rq.Enqueue(a)
	rq.Enqueue(b)
	if rq.Len() != 2 || a.CPU != 3 {
		t.Fatalf("Len=%d a.CPU=%d", rq.Len(), a.CPU)
	}
	if got := rq.PickNext(); got != a {
		t.Fatalf("PickNext = task %d, want 1 (FIFO)", got.ID)
	}
	if rq.Len() != 2 { // current counts toward length
		t.Fatalf("Len with current = %d", rq.Len())
	}
	// Requeue rotates: a goes to the tail.
	rq.Deschedule(true)
	if got := rq.PickNext(); got != b {
		t.Fatalf("rotation broken: got task %d", got.ID)
	}
}

func TestRunqueuePickNextPanicsWhenBusy(t *testing.T) {
	rq := NewRunqueue(0)
	rq.Enqueue(mkTask(1, 40))
	rq.PickNext()
	defer func() {
		if recover() == nil {
			t.Fatal("PickNext while busy did not panic")
		}
	}()
	rq.PickNext()
}

func TestRunqueueRemoveQueued(t *testing.T) {
	rq := NewRunqueue(0)
	a, b := mkTask(1, 40), mkTask(2, 50)
	rq.Enqueue(a)
	rq.Enqueue(b)
	rq.RemoveQueued(a)
	if rq.Len() != 1 || rq.Queued()[0] != b {
		t.Fatal("RemoveQueued broken")
	}
	// Removing the running task panics.
	rq.PickNext()
	defer func() {
		if recover() == nil {
			t.Fatal("RemoveQueued(current) did not panic")
		}
	}()
	rq.RemoveQueued(b)
}

func TestRunqueuePowerMetrics(t *testing.T) {
	rq := NewRunqueue(0)
	if rq.Power() != 0 {
		t.Fatal("idle queue power should be 0")
	}
	hot, mid, cool := mkTask(1, 61), mkTask(2, 47), mkTask(3, 38)
	rq.Enqueue(hot)
	rq.Enqueue(mid)
	rq.Enqueue(cool)
	if got := rq.Power(); math.Abs(got-(61+47+38)/3.0) > 1e-9 {
		t.Fatalf("Power = %v", got)
	}
	rq.PickNext() // hot becomes current
	if rq.HottestQueued() != mid || rq.CoolestQueued() != cool {
		t.Fatal("hottest/coolest of queued tasks wrong (current excluded)")
	}
	if got := rq.Power(); math.Abs(got-(61+47+38)/3.0) > 1e-9 {
		t.Fatal("Power must include the running task")
	}
}

func TestMigrateBookkeeping(t *testing.T) {
	s := newSched(topology.XSeries445NoSMT(), DefaultConfig())
	task := mkTask(1, 61)
	s.RQ(0).Enqueue(task)

	var beforeFrom, beforeTo topology.CPUID = -1, -1
	var afterReason MigrationReason
	s.Hooks.BeforeMigrate = func(tk *Task, from, to topology.CPUID) { beforeFrom, beforeTo = from, to }
	s.Hooks.AfterMigrate = func(tk *Task, from, to topology.CPUID, r MigrationReason) { afterReason = r }

	// Same-node migration.
	s.Migrate(task, 2, MigrateEnergy)
	if task.CPU != 2 || task.Migrations != 1 || task.NodeMigrations != 0 {
		t.Fatalf("task state after intra-node move: %+v", task)
	}
	if task.WarmupLeft != cacheWarmupMS {
		t.Fatalf("warmup = %v", task.WarmupLeft)
	}
	if beforeFrom != 0 || beforeTo != 2 || afterReason != MigrateEnergy {
		t.Fatal("hooks not invoked correctly")
	}
	// Cross-node migration (CPU 4 is on node 1).
	s.Migrate(task, 4, MigrateHot)
	if task.NodeMigrations != 1 || task.WarmupLeft != nodeWarmupMS {
		t.Fatalf("cross-node bookkeeping: %+v", task)
	}
	if s.MigrationCount != 2 || s.MigrationsByReason[MigrateEnergy] != 1 || s.MigrationsByReason[MigrateHot] != 1 {
		t.Fatal("migration counters wrong")
	}
	// No-op migration to the same CPU.
	s.Migrate(task, 4, MigrateLoad)
	if s.MigrationCount != 2 {
		t.Fatal("same-CPU migration should be a no-op")
	}
}

func TestMigrateRunningTaskDeschedules(t *testing.T) {
	s := newSched(smp2(), DefaultConfig())
	task := mkTask(1, 61)
	s.RQ(0).Enqueue(task)
	s.RQ(0).PickNext()
	s.Migrate(task, 1, MigrateHot)
	if s.RQ(0).Current != nil || s.RQ(0).Len() != 0 {
		t.Fatal("source queue not cleaned up")
	}
	if s.RQ(1).Len() != 1 {
		t.Fatal("task not enqueued at destination")
	}
}

func TestLoadBalancePullsHalfTheImbalance(t *testing.T) {
	s := newSched(smp2(), BaselineConfig())
	for i := 0; i < 4; i++ {
		s.RQ(0).Enqueue(mkTask(i, 47))
	}
	s.Balance(1)
	if got := s.RQ(1).Len(); got != 2 {
		t.Fatalf("local length after balance = %d, want 2", got)
	}
	if s.MigrationsByReason[MigrateLoad] != 2 {
		t.Fatalf("load migrations = %d", s.MigrationsByReason[MigrateLoad])
	}
}

func TestLoadBalanceLeavesBalancedAlone(t *testing.T) {
	s := newSched(smp2(), BaselineConfig())
	s.RQ(0).Enqueue(mkTask(1, 47))
	s.RQ(0).Enqueue(mkTask(2, 47))
	s.RQ(1).Enqueue(mkTask(3, 47))
	s.Balance(1) // 2 vs 1: within one task → no move
	if s.MigrationCount != 0 {
		t.Fatal("balancer moved tasks despite balance")
	}
}

// §4.4: with energy balancing on, the load balancer moves hot tasks to
// hotter CPUs and cool tasks to cooler CPUs.
func TestLoadBalanceEnergyAwareTaskChoice(t *testing.T) {
	mk := func(remoteHot bool) float64 {
		s := newSched(smp2(), DefaultConfig())
		// CPU 0 has 3 tasks of different heat; CPU 1 idle pulls one.
		s.RQ(0).Enqueue(mkTask(1, 61))
		s.RQ(0).Enqueue(mkTask(2, 47))
		s.RQ(0).Enqueue(mkTask(3, 38))
		if remoteHot {
			setTP(s, 0, 55) // remote (CPU 0) hotter than local (CPU 1)
		} else {
			setTP(s, 1, 55) // local hotter
		}
		s.Balance(1)
		got := s.RQ(1).Queued()
		if len(got) == 0 {
			return -1
		}
		return got[0].ProfiledWatts()
	}
	if w := mk(true); w != 61 {
		t.Errorf("hot remote: pulled %v W task, want the 61 W one", w)
	}
	if w := mk(false); w != 38 {
		t.Errorf("cool remote: pulled %v W task, want the 38 W one", w)
	}
}

// §4.4 energy balancing: a cool CPU pulls heat from a hot CPU when both
// ratio conditions agree, exchanging a cool task back to preserve load.
func TestEnergyBalanceExchangesHeat(t *testing.T) {
	s := newSched(smp2(), DefaultConfig())
	// CPU 0: two hot tasks; CPU 1: two cool tasks. Load is balanced,
	// energy is not.
	h1, h2 := mkTask(1, 61), mkTask(2, 60)
	c1, c2 := mkTask(3, 38), mkTask(4, 39)
	s.RQ(0).Enqueue(h1)
	s.RQ(0).Enqueue(h2)
	s.RQ(1).Enqueue(c1)
	s.RQ(1).Enqueue(c2)
	setTP(s, 0, 55) // CPU 0 visibly hotter
	setTP(s, 1, 30)

	s.Balance(1) // runs on the cool CPU, pulls heat
	if s.MigrationsByReason[MigrateEnergy] == 0 {
		t.Fatal("no energy migrations happened")
	}
	// Load must remain balanced.
	if l0, l1 := s.RQ(0).Len(), s.RQ(1).Len(); absInt(l0-l1) > 1 {
		t.Fatalf("energy balancing created load imbalance: %d vs %d", l0, l1)
	}
	// The runqueue power gap must have narrowed.
	gap := math.Abs(s.RQ(0).Power() - s.RQ(1).Power())
	if gap >= 22 {
		t.Fatalf("power gap did not narrow: %v", gap)
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// The hysteresis conditions: no pull when the remote CPU is not hotter
// on BOTH metrics.
func TestEnergyBalanceHysteresis(t *testing.T) {
	// Case 1: remote has hotter tasks but lower thermal power
	// (recently cooled) → no pull.
	s := newSched(smp2(), DefaultConfig())
	s.RQ(0).Enqueue(mkTask(1, 61))
	s.RQ(0).Enqueue(mkTask(2, 61))
	s.RQ(1).Enqueue(mkTask(3, 38))
	s.RQ(1).Enqueue(mkTask(4, 38))
	setTP(s, 0, 20) // hot tasks but currently cool chip
	setTP(s, 1, 40)
	s.Balance(1)
	if s.MigrationsByReason[MigrateEnergy] != 0 {
		t.Fatal("pulled despite remote thermal power being lower")
	}

	// Case 2: remote is warm but its queue draws less power → no pull.
	s2 := newSched(smp2(), DefaultConfig())
	s2.RQ(0).Enqueue(mkTask(1, 38))
	s2.RQ(0).Enqueue(mkTask(2, 38))
	s2.RQ(1).Enqueue(mkTask(3, 61))
	s2.RQ(1).Enqueue(mkTask(4, 61))
	setTP(s2, 0, 50)
	setTP(s2, 1, 30)
	s2.Balance(1)
	if s2.MigrationsByReason[MigrateEnergy] != 0 {
		t.Fatal("pulled despite remote runqueue power being lower")
	}
}

// Repeated balancing must converge: once the ratios are even, no
// further migrations occur (no ping-pong, §4.3/§4.4).
func TestEnergyBalanceConverges(t *testing.T) {
	s := newSched(smp4(), DefaultConfig())
	watts := []float64{61, 61, 60, 60, 39, 39, 38, 38}
	for i, w := range watts {
		s.RQ(topology.CPUID(i % 2)).Enqueue(mkTask(i, w)) // alternate onto CPUs 0 and 1
	}
	setTP(s, 0, 55)
	setTP(s, 1, 50)
	for round := 0; round < 10; round++ {
		for c := 0; c < 4; c++ {
			s.Balance(topology.CPUID(c))
		}
	}
	before := s.MigrationCount
	for round := 0; round < 10; round++ {
		for c := 0; c < 4; c++ {
			s.Balance(topology.CPUID(c))
		}
	}
	// Thermal powers are static here, so the system must fully settle.
	if s.MigrationCount != before {
		t.Fatalf("balancer still migrating after convergence: %d → %d", before, s.MigrationCount)
	}
}

// §4.7: no energy balancing between SMT siblings — the energy step is
// skipped for domains flagged FlagShareCPUPower.
func TestNoEnergyBalanceBetweenSiblings(t *testing.T) {
	l := topology.Layout{Nodes: 1, PackagesPerNode: 1, ThreadsPerPackage: 2}
	s := newSched(l, DefaultConfig())
	// CPU 0 (thread 0) has two hot tasks, CPU 1 (its sibling) two cool.
	s.RQ(0).Enqueue(mkTask(1, 61))
	s.RQ(0).Enqueue(mkTask(2, 61))
	s.RQ(1).Enqueue(mkTask(3, 38))
	s.RQ(1).Enqueue(mkTask(4, 38))
	setTP(s, 0, 30)
	setTP(s, 1, 15)
	s.Balance(1)
	if s.MigrationsByReason[MigrateEnergy] != 0 {
		t.Fatal("energy balancing ran between SMT siblings")
	}
}

func TestHotTriggerPackageSum(t *testing.T) {
	l := topology.Layout{Nodes: 1, PackagesPerNode: 2, ThreadsPerPackage: 2}
	s := newSched(l, DefaultConfig())
	for i := range s.Power {
		s.Power[i] = profile.NewCPUPower(20, 0.001, 1, 6.8) // 40 W per package
	}
	if s.HotTrigger(0) {
		t.Fatal("trigger armed on a cool package")
	}
	setTP(s, 0, 35) // package sum 35 + 6.8 > 40 − margin
	if !s.HotTrigger(0) {
		t.Fatal("trigger not armed on hot package")
	}
	// The sibling sees the same package state.
	if !s.HotTrigger(2) {
		t.Fatal("sibling trigger disagrees")
	}
}

func TestHotCheckMigratesToCoolIdleCPU(t *testing.T) {
	s := newSched(smp2(), DefaultConfig())
	task := mkTask(1, 61)
	s.RQ(0).Enqueue(task)
	s.RQ(0).PickNext()
	setTP(s, 0, 59.5) // at the limit
	setTP(s, 1, 14)   // cool and idle
	if !s.HotCheck(0) {
		t.Fatal("hot check did not migrate")
	}
	if task.CPU != 1 || s.MigrationsByReason[MigrateHot] != 1 {
		t.Fatalf("task on CPU %d", task.CPU)
	}
}

func TestHotCheckRequiresSingleTaskQueue(t *testing.T) {
	s := newSched(smp2(), DefaultConfig())
	s.RQ(0).Enqueue(mkTask(1, 61))
	s.RQ(0).Enqueue(mkTask(2, 61))
	s.RQ(0).PickNext()
	setTP(s, 0, 59.5)
	setTP(s, 1, 14)
	if s.HotCheck(0) {
		t.Fatal("hot check ran with multiple tasks queued (energy balancing's job)")
	}
}

func TestHotCheckNeedsConsiderablyCoolerDest(t *testing.T) {
	s := newSched(smp2(), DefaultConfig())
	s.RQ(0).Enqueue(mkTask(1, 61))
	s.RQ(0).PickNext()
	setTP(s, 0, 59.5)
	setTP(s, 1, 55) // warm: gap 4.5 < HotDestGapW
	if s.HotCheck(0) {
		t.Fatal("migrated to a destination that is not considerably cooler")
	}
}

func TestHotCheckExchangesWithCoolTask(t *testing.T) {
	s := newSched(smp2(), DefaultConfig())
	hot, cool := mkTask(1, 61), mkTask(2, 38)
	s.RQ(0).Enqueue(hot)
	s.RQ(0).PickNext()
	s.RQ(1).Enqueue(cool)
	s.RQ(1).PickNext()
	setTP(s, 0, 59.5)
	setTP(s, 1, 30)
	if !s.HotCheck(0) {
		t.Fatal("no exchange happened")
	}
	if hot.CPU != 1 || cool.CPU != 0 {
		t.Fatalf("exchange wrong: hot on %d, cool on %d", hot.CPU, cool.CPU)
	}
	// Load stayed balanced.
	if s.RQ(0).Len() != 1 || s.RQ(1).Len() != 1 {
		t.Fatal("exchange unbalanced the queues")
	}
}

func TestHotCheckNoExchangeWithEquallyHotTask(t *testing.T) {
	s := newSched(smp2(), DefaultConfig())
	a, b := mkTask(1, 61), mkTask(2, 60)
	s.RQ(0).Enqueue(a)
	s.RQ(0).PickNext()
	s.RQ(1).Enqueue(b)
	s.RQ(1).PickNext()
	setTP(s, 0, 59.5)
	setTP(s, 1, 30)
	if s.HotCheck(0) {
		t.Fatal("exchanged with an equally hot task")
	}
}

// §6.4 / Fig. 9: a hot task is never migrated to an SMT sibling of its
// own package.
func TestHotCheckNeverMigratesToSibling(t *testing.T) {
	l := topology.Layout{Nodes: 1, PackagesPerNode: 2, ThreadsPerPackage: 2}
	s := newSched(l, DefaultConfig())
	for i := range s.Power {
		s.Power[i] = profile.NewCPUPower(20, 0.001, 1, 6.8)
	}
	task := mkTask(1, 61)
	s.RQ(0).Enqueue(task)
	s.RQ(0).PickNext()
	setTP(s, 0, 40)
	setTP(s, 2, 5) // CPU 2 is CPU 0's sibling: coolest but forbidden
	setTP(s, 1, 7)
	setTP(s, 3, 7)
	if !s.HotCheck(0) {
		t.Fatal("no migration")
	}
	if task.CPU == 2 {
		t.Fatal("task migrated to its SMT sibling")
	}
	if task.CPU != 1 && task.CPU != 3 {
		t.Fatalf("task on unexpected CPU %d", task.CPU)
	}
}

// Fig. 9: migration prefers the own node — the node-level domain is
// searched before the top level.
func TestHotCheckPrefersOwnNode(t *testing.T) {
	s := newSched(topology.XSeries445NoSMT(), DefaultConfig())
	task := mkTask(1, 61)
	s.RQ(0).Enqueue(task)
	s.RQ(0).PickNext()
	setTP(s, 0, 59.5)
	// CPU 5 (node 1) is coldest overall, but CPU 3 (node 0) is cool
	// enough — the hot task must stay on node 0.
	for c := 1; c < 8; c++ {
		setTP(s, c, 30)
	}
	setTP(s, 3, 20)
	setTP(s, 5, 10)
	if !s.HotCheck(0) {
		t.Fatal("no migration")
	}
	if task.CPU != 3 {
		t.Fatalf("task went to CPU %d, want 3 (coolest on own node)", task.CPU)
	}
	if task.NodeMigrations != 0 {
		t.Fatal("migration crossed the node boundary unnecessarily")
	}
}

// "If no suitable CPU is found after searching the top-level domain,
// all of the system's CPUs are hot and the hot task must remain."
func TestHotCheckAllHotStays(t *testing.T) {
	s := newSched(smp4(), DefaultConfig())
	task := mkTask(1, 61)
	s.RQ(0).Enqueue(task)
	s.RQ(0).PickNext()
	for c := 0; c < 4; c++ {
		setTP(s, c, 58)
	}
	if s.HotCheck(0) {
		t.Fatal("migrated despite all CPUs hot")
	}
	if task.CPU != 0 {
		t.Fatal("task moved")
	}
}

func TestHotCheckDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HotTaskMigration = false
	s := newSched(smp2(), cfg)
	s.RQ(0).Enqueue(mkTask(1, 61))
	s.RQ(0).PickNext()
	setTP(s, 0, 59.5)
	setTP(s, 1, 14)
	if s.HotCheck(0) {
		t.Fatal("disabled hot migration ran")
	}
}

// §4.6: a CPU is eligible only if no other CPU runs fewer tasks.
func TestPlacementRespectsLoad(t *testing.T) {
	s := newSched(smp4(), DefaultConfig())
	s.RQ(0).Enqueue(mkTask(1, 38))
	s.RQ(1).Enqueue(mkTask(2, 38))
	s.RQ(2).Enqueue(mkTask(3, 38))
	// Only CPU 3 is empty: the new task must go there even though the
	// energy fit might prefer another CPU.
	task := mkTask(4, 61)
	if got := s.PlaceNewTask(task); got != 3 {
		t.Fatalf("placed on CPU %d, want 3", got)
	}
}

// §4.6: among eligible CPUs, hot tasks go to cool CPUs and vice versa.
func TestPlacementEnergyAware(t *testing.T) {
	s := newSched(smp2(), DefaultConfig())
	// CPU 0 carries a hot task, CPU 1 a cool one; both length 1.
	s.RQ(0).Enqueue(mkTask(1, 61))
	s.RQ(1).Enqueue(mkTask(2, 38))
	// Seed the placement table so the new "bitcnts" is known hot.
	s.Placement.Record(77, 61)
	hot := &Task{ID: 3, Binary: 77}
	if got := s.PlaceNewTask(hot); got != 1 {
		t.Fatalf("hot task placed on CPU %d, want the cool CPU 1", got)
	}
	if !hot.Profile.Primed() || hot.Profile.Watts() != 61 {
		t.Fatal("profile not seeded from placement table")
	}
	s2 := newSched(smp2(), DefaultConfig())
	s2.RQ(0).Enqueue(mkTask(1, 61))
	s2.RQ(1).Enqueue(mkTask(2, 38))
	s2.Placement.Record(88, 38)
	cool := &Task{ID: 4, Binary: 88}
	if got := s2.PlaceNewTask(cool); got != 0 {
		t.Fatalf("cool task placed on CPU %d, want the hot CPU 0", got)
	}
}

func TestPlacementRoundRobinWhenDisabled(t *testing.T) {
	s := newSched(smp4(), BaselineConfig())
	seen := map[topology.CPUID]bool{}
	for i := 0; i < 4; i++ {
		seen[s.PlaceNewTask(&Task{ID: i, Binary: 1})] = true
	}
	if len(seen) != 4 {
		t.Fatalf("round-robin placement used %d CPUs, want 4", len(seen))
	}
}

func TestPlacementUnknownBinaryUsesDefault(t *testing.T) {
	s := newSched(smp2(), DefaultConfig())
	task := &Task{ID: 1, Binary: 424242}
	s.PlaceNewTask(task)
	if task.Profile.Watts() != s.Placement.DefaultWatts {
		t.Fatalf("default seed = %v", task.Profile.Watts())
	}
}

func TestRecordFirstSlice(t *testing.T) {
	s := newSched(smp2(), DefaultConfig())
	task := mkTask(1, 45)
	s.RecordFirstSlice(task, 59)
	if got := s.Placement.Lookup(task.Binary); got != 59 {
		t.Fatalf("placement table after record = %v", got)
	}
}

func TestMaxPowerUninstalled(t *testing.T) {
	s := New(topology.MustNew(smp2()), DefaultConfig())
	if s.MaxPower(0) < 1e17 {
		t.Fatal("uninstalled max power should be effectively infinite")
	}
	if s.ThermalPower(0) != 0 || s.ThermalRatio(0) != 0 {
		t.Fatal("uninstalled thermal metrics should be 0")
	}
	if s.HotTrigger(0) {
		t.Fatal("trigger armed without power budgets")
	}
}

func TestTotalTasks(t *testing.T) {
	s := newSched(smp2(), DefaultConfig())
	s.RQ(0).Enqueue(mkTask(1, 40))
	s.RQ(1).Enqueue(mkTask(2, 40))
	s.RQ(0).PickNext()
	if s.TotalTasks() != 2 {
		t.Fatalf("TotalTasks = %d", s.TotalTasks())
	}
}

// ---- §7 CMP extension ----

// cmpSched builds a scheduler over 2 dual-core packages (4 cores, SMT
// off) with a 40 W budget per core.
func cmpSched(cfg Config) *Scheduler {
	s := New(topology.MustNew(topology.CMP2x2()), cfg)
	for i := range s.Power {
		s.Power[i] = profile.NewCPUPower(40, 0.001, 1, 6.8)
	}
	return s
}

func TestCMPHotCheckPrefersOwnChip(t *testing.T) {
	s := cmpSched(DefaultConfig())
	task := mkTask(1, 61)
	s.RQ(0).Enqueue(task) // core 0, package 0
	s.RQ(0).PickNext()
	setTP(s, 0, 39.5) // at the 40 W core limit
	setTP(s, 1, 10)   // same chip, cool
	setTP(s, 2, 8)    // other chip, cooler still
	setTP(s, 3, 8)
	if !s.HotCheck(0) {
		t.Fatal("no migration")
	}
	// The mc level is searched first: core 1 (same chip) wins even
	// though the other chip is cooler.
	if task.CPU != 1 {
		t.Fatalf("task went to CPU %d, want 1 (same chip)", task.CPU)
	}
}

func TestCMPHotCheckCrossesChipWhenOwnChipWarm(t *testing.T) {
	s := cmpSched(DefaultConfig())
	task := mkTask(1, 61)
	s.RQ(0).Enqueue(task)
	s.RQ(0).PickNext()
	setTP(s, 0, 39.5)
	setTP(s, 1, 35) // same chip but not considerably cooler
	setTP(s, 2, 8)
	setTP(s, 3, 9)
	if !s.HotCheck(0) {
		t.Fatal("no migration")
	}
	if task.CPU != 2 {
		t.Fatalf("task went to CPU %d, want 2 (coolest core of other chip)", task.CPU)
	}
}

func TestCMPEnergyBalancingRunsAtMCLevel(t *testing.T) {
	// Hot pair on core 0, cool pair on core 1 of the same chip: the
	// mc domain is NOT ShareCPUPower, so energy balancing must act.
	s := cmpSched(DefaultConfig())
	s.RQ(0).Enqueue(mkTask(1, 61))
	s.RQ(0).Enqueue(mkTask(2, 60))
	s.RQ(1).Enqueue(mkTask(3, 38))
	s.RQ(1).Enqueue(mkTask(4, 39))
	setTP(s, 0, 39)
	setTP(s, 1, 20)
	s.Balance(1)
	if s.MigrationsByReason[MigrateEnergy] == 0 {
		t.Fatal("no energy balancing between cores of one chip")
	}
}

func TestCoreVsPackageThermalSum(t *testing.T) {
	s := cmpSched(DefaultConfig())
	setTP(s, 0, 30)
	setTP(s, 1, 20)
	setTP(s, 2, 10)
	if got := s.CoreThermalSum(0); got != 30 {
		t.Errorf("CoreThermalSum(0) = %v, want 30", got)
	}
	if got := s.PackageThermalSum(0); got != 50 {
		t.Errorf("PackageThermalSum(0) = %v, want 50 (cores 0+1)", got)
	}
}

// ---- §7 unit-aware balancing ----

// mkUnitTask returns a task with both scalar and per-unit profiles: the
// scalar power is watts; the unit split puts domFrac of it on dom.
func mkUnitTask(id int, watts float64, dom units.Kind, domFrac float64) *Task {
	t := mkTask(id, watts)
	t.Units = units.NewProfile()
	var e units.Energies
	e[dom] = watts * domFrac / 10
	rest := watts * (1 - domFrac) / 2 / 10
	for u := range e {
		if units.Kind(u) != dom {
			e[u] = rest
		}
	}
	for i := 0; i < 10; i++ {
		t.Units.AddSample(e, 100)
	}
	return t
}

func TestUnitBalanceSwapsEqualPowerTasks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UnitAwareBalancing = true
	s := newSched(smp2(), cfg)
	// CPU 0: two int-heavy tasks; CPU 1: two fp-heavy. All 50 W.
	s.RQ(0).Enqueue(mkUnitTask(1, 50, units.IntCore, 0.8))
	s.RQ(0).Enqueue(mkUnitTask(2, 50, units.IntCore, 0.8))
	s.RQ(1).Enqueue(mkUnitTask(3, 50, units.FPUnit, 0.8))
	s.RQ(1).Enqueue(mkUnitTask(4, 50, units.FPUnit, 0.8))
	peakBefore := maxf(s.RQ(0).unitPeak(), s.RQ(1).unitPeak())
	if !s.UnitBalance(0) {
		t.Fatal("no unit exchange happened")
	}
	if s.MigrationsByReason[MigrateUnit] != 2 {
		t.Fatalf("unit migrations = %d, want 2 (one each way)", s.MigrationsByReason[MigrateUnit])
	}
	// Load unchanged, peaks reduced.
	if s.RQ(0).Len() != 2 || s.RQ(1).Len() != 2 {
		t.Fatal("unit exchange unbalanced load")
	}
	peakAfter := maxf(s.RQ(0).unitPeak(), s.RQ(1).unitPeak())
	if peakAfter >= peakBefore-1 {
		t.Fatalf("peak not reduced: %.1f -> %.1f", peakBefore, peakAfter)
	}
}

func TestUnitBalanceRespectsPowerMargin(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UnitAwareBalancing = true
	s := newSched(smp2(), cfg)
	// Unit-imbalanced but wildly different scalar powers: swapping
	// would break the energy balance, so it must not happen.
	s.RQ(0).Enqueue(mkUnitTask(1, 61, units.IntCore, 0.8))
	s.RQ(0).Enqueue(mkUnitTask(2, 61, units.IntCore, 0.8))
	s.RQ(1).Enqueue(mkUnitTask(3, 38, units.FPUnit, 0.8))
	s.RQ(1).Enqueue(mkUnitTask(4, 38, units.FPUnit, 0.8))
	if s.UnitBalance(0) {
		t.Fatal("unit balance swapped across the power margin")
	}
}

func TestUnitBalanceDisabledByDefault(t *testing.T) {
	s := newSched(smp2(), DefaultConfig())
	s.RQ(0).Enqueue(mkUnitTask(1, 50, units.IntCore, 0.8))
	s.RQ(0).Enqueue(mkUnitTask(2, 50, units.IntCore, 0.8))
	s.RQ(1).Enqueue(mkUnitTask(3, 50, units.FPUnit, 0.8))
	s.RQ(1).Enqueue(mkUnitTask(4, 50, units.FPUnit, 0.8))
	if s.UnitBalance(0) {
		t.Fatal("unit balance ran while disabled")
	}
}

func TestUnitBalanceNoOpOnMixedQueues(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UnitAwareBalancing = true
	s := newSched(smp2(), cfg)
	// Already mixed: no exchange should clear the gain threshold.
	s.RQ(0).Enqueue(mkUnitTask(1, 50, units.IntCore, 0.8))
	s.RQ(0).Enqueue(mkUnitTask(2, 50, units.FPUnit, 0.8))
	s.RQ(1).Enqueue(mkUnitTask(3, 50, units.IntCore, 0.8))
	s.RQ(1).Enqueue(mkUnitTask(4, 50, units.FPUnit, 0.8))
	before := s.MigrationCount
	s.UnitBalance(0)
	s.UnitBalance(1)
	if s.MigrationCount != before {
		t.Fatal("unit balance churned on already-mixed queues")
	}
}

// ---- §4.3 metric-mode unit behaviour ----

// Power-only mode pulls even when the remote chip is currently cool —
// the thermal hysteresis condition is gone.
func TestMetricPowerOnlySkipsThermalCheck(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Metric = MetricPowerOnly
	s := newSched(smp2(), cfg)
	s.RQ(0).Enqueue(mkTask(1, 61))
	s.RQ(0).Enqueue(mkTask(2, 61))
	s.RQ(1).Enqueue(mkTask(3, 38))
	s.RQ(1).Enqueue(mkTask(4, 38))
	setTP(s, 0, 20) // remote chip cool: MetricBoth would refuse
	setTP(s, 1, 40)
	s.Balance(1)
	if s.MigrationsByReason[MigrateEnergy] == 0 {
		t.Fatal("power-only mode should pull despite cool remote chip")
	}
}

// Thermal-only mode pulls even when the remote queue draws less power —
// the runqueue-power condition is gone (over-balancing).
func TestMetricThermalOnlySkipsRQCheck(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Metric = MetricThermalOnly
	s := newSched(smp2(), cfg)
	s.RQ(0).Enqueue(mkTask(1, 38))
	s.RQ(0).Enqueue(mkTask(2, 38))
	s.RQ(1).Enqueue(mkTask(3, 61))
	s.RQ(1).Enqueue(mkTask(4, 61))
	setTP(s, 0, 50) // remote chip warm though its queue is cool
	setTP(s, 1, 30)
	s.Balance(1)
	if s.MigrationsByReason[MigrateEnergy] == 0 {
		t.Fatal("thermal-only mode should pull despite cooler remote queue")
	}
}

// The combined mode refuses both of the above situations.
func TestMetricBothRefusesEither(t *testing.T) {
	mk := func(remoteTP, localTP float64, remoteW, localW float64) int64 {
		s := newSched(smp2(), DefaultConfig())
		s.RQ(0).Enqueue(mkTask(1, remoteW))
		s.RQ(0).Enqueue(mkTask(2, remoteW))
		s.RQ(1).Enqueue(mkTask(3, localW))
		s.RQ(1).Enqueue(mkTask(4, localW))
		setTP(s, 0, remoteTP)
		setTP(s, 1, localTP)
		s.Balance(1)
		return s.MigrationsByReason[MigrateEnergy]
	}
	if n := mk(20, 40, 61, 38); n != 0 {
		t.Fatalf("combined mode pulled from a cool chip: %d", n)
	}
	if n := mk(50, 30, 38, 61); n != 0 {
		t.Fatalf("combined mode pulled from a cooler queue: %d", n)
	}
}

// Property: Migrate preserves the total task count for arbitrary move
// sequences over a small machine.
func TestQuickMigratePreservesTasks(t *testing.T) {
	s := newSched(smp4(), DefaultConfig())
	var all []*Task
	for i := 0; i < 8; i++ {
		tk := mkTask(i, 38+float64(i*3))
		all = append(all, tk)
		s.RQ(topology.CPUID(i % 4)).Enqueue(tk)
	}
	r := newTestRand(99)
	for step := 0; step < 500; step++ {
		tk := all[int(r()>>33)%len(all)]
		dst := topology.CPUID(int(r()>>35) % 4)
		// Only queued tasks may move through this path.
		if s.RQ(tk.CPU).Current == tk {
			continue
		}
		s.Migrate(tk, dst, MigrateLoad)
		total := 0
		for c := 0; c < 4; c++ {
			total += s.RQ(topology.CPUID(c)).Len()
		}
		if total != len(all) {
			t.Fatalf("task count = %d after step %d", total, step)
		}
	}
}

// newTestRand is a tiny splitmix64 for the property test above (the
// sched package cannot import internal/rng's tests).
func newTestRand(seed uint64) func() uint64 {
	state := seed
	return func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}
