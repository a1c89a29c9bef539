package sched

import (
	"fmt"

	"energysched/internal/profile"
	"energysched/internal/topology"
)

// BalanceMetric selects which §4.3 metrics gate the energy-balancing
// pull. The paper argues both are needed: power-only decisions
// ping-pong (power reacts instantly, so moves immediately reverse), and
// temperature-only decisions over-balance (temperature reacts slowly,
// so the balancer keeps shifting tasks long after the imbalance is
// resolved). The non-default modes exist for the ablation benchmarks.
type BalanceMetric int

const (
	// MetricBoth is the paper's policy: a remote queue is hotter only
	// if both its thermal power ratio and runqueue power ratio say so.
	MetricBoth BalanceMetric = iota
	// MetricPowerOnly ignores the thermal condition (ablation:
	// ping-pong effects).
	MetricPowerOnly
	// MetricThermalOnly ignores the runqueue-power condition
	// (ablation: over-balancing).
	MetricThermalOnly
)

// Config selects the scheduling policy and its tuning constants. The
// zero value is not usable; start from DefaultConfig.
type Config struct {
	// EnergyBalancing enables the §4.4 energy-balancing step inside
	// the balancer (the paper's "energy balancing enabled" runs).
	EnergyBalancing bool
	// Metric selects the §4.3 metric combination (ablations only;
	// leave MetricBoth for the paper's policy).
	Metric BalanceMetric
	// HotTaskMigration enables the §4.5 policy for single-task CPUs.
	HotTaskMigration bool
	// EnergyAwarePlacement enables §4.6 initial placement; when false,
	// new tasks go to the least-loaded CPU with round-robin
	// tie-breaking, like vanilla Linux.
	EnergyAwarePlacement bool

	// BalancePeriodMS is the per-CPU interval between balancer runs.
	BalancePeriodMS float64
	// HotCheckPeriodMS is the per-CPU interval between hot-task-
	// migration checks.
	HotCheckPeriodMS float64

	// HotDestGapW is the minimum thermal-power gap between source and
	// destination (§4.5: "the destination CPU must be considerably
	// cooler than the source CPU to limit the frequency at which hot
	// tasks are migrated").
	HotDestGapW float64

	// ThermalRatioMargin and RQRatioMargin are the hysteresis margins
	// of the §4.4 pull conditions: a remote queue is only considered
	// hotter when both its thermal power ratio and its runqueue power
	// ratio exceed the local ones by these margins.
	ThermalRatioMargin float64
	RQRatioMargin      float64

	// UnitAwareBalancing enables the §7 unit-balancing exchanges for
	// tasks with equal total power but different functional-unit
	// footprints.
	UnitAwareBalancing bool
}

// The policy's fixed constants.
const (
	// hotTriggerMarginW arms hot task migration when a package's
	// thermal power is within this margin of its maximum power (§4.5:
	// "comes closer to the CPU's maximum power than a predefined
	// threshold").
	hotTriggerMarginW = 1.0
	// exchangeGapW is the minimum profile gap for swapping a hot task
	// with a cool one during hot task migration (§4.5).
	exchangeGapW = 5
	// maxPullPerBalance caps the tasks moved by one energy-balance step
	// (§4.4).
	maxPullPerBalance = 1
	// unitSwapPowerMarginW is the maximum scalar-power difference
	// between two tasks a §7 unit exchange may trade (the swap must not
	// disturb the §4.4 energy balance).
	unitSwapPowerMarginW = 6
	// unitGainMinW is the minimum reduction of the per-unit peak that
	// justifies a §7 unit exchange.
	unitGainMinW = 3.0
	// cacheWarmupMS and nodeWarmupMS are the cache-refill penalties a
	// migrated task pays, within a node and across nodes (§4.1).
	cacheWarmupMS = 2
	nodeWarmupMS  = 8
	// defaultPlacementW is the §4.6 placement table's power estimate
	// for a binary it has not yet seen run.
	defaultPlacementW = 45
)

// WarmupSpeed is the speed factor of a task paying its §4.1 cache-refill
// penalty after a migration.
const WarmupSpeed = 0.5

// DefaultConfig returns the paper policy with all three energy-aware
// mechanisms enabled.
func DefaultConfig() Config {
	return Config{
		EnergyBalancing:      true,
		HotTaskMigration:     true,
		EnergyAwarePlacement: true,
		BalancePeriodMS:      250,
		HotCheckPeriodMS:     100,
		HotDestGapW:          12,
		ThermalRatioMargin:   0.06,
		RQRatioMargin:        0.06,
	}
}

// BaselineConfig returns vanilla Linux behaviour: load balancing only.
func BaselineConfig() Config {
	c := DefaultConfig()
	c.EnergyBalancing = false
	c.HotTaskMigration = false
	c.EnergyAwarePlacement = false
	return c
}

// MigrationReason tags why a task moved, for the evaluation's
// migration accounting (§6.1) and the Fig. 9 trace.
type MigrationReason int

const (
	// MigrateLoad is an ordinary load-balancing move.
	MigrateLoad MigrationReason = iota
	// MigrateEnergy is a §4.4 energy-balancing pull (or its
	// compensating cool-task return).
	MigrateEnergy
	// MigrateHot is a §4.5 hot task migration (or its exchange
	// partner).
	MigrateHot
	// MigrateUnit is a §7 unit-balancing exchange: equal-power tasks
	// traded to flatten functional-unit hotspots.
	MigrateUnit
)

// String names the reason.
func (r MigrationReason) String() string {
	switch r {
	case MigrateLoad:
		return "load"
	case MigrateEnergy:
		return "energy"
	case MigrateHot:
		return "hot"
	case MigrateUnit:
		return "unit"
	}
	return fmt.Sprintf("reason(%d)", int(r))
}

// Hooks let the driving machine observe scheduler actions that need
// energy accounting or tracing.
type Hooks struct {
	// BeforeMigrate runs before a task is unlinked from its source
	// CPU. If the task is currently running there, the machine must
	// finalize its energy accounting (the migration ends its
	// timeslice).
	BeforeMigrate func(t *Task, from, to topology.CPUID)
	// AfterMigrate runs after the task is enqueued on its new CPU.
	AfterMigrate func(t *Task, from, to topology.CPUID, reason MigrationReason)
	// ThermalRead runs before the thermal-power metric of a CPU is
	// read. A machine that defers idle-CPU accounting (the async
	// engine) installs it to settle the CPU's metric on demand, so a
	// balance or placement pass touching a handful of CPUs does not
	// force a machine-wide settle of every parked one.
	ThermalRead func(cpu topology.CPUID)
}

// Scheduler holds the complete scheduling state of the machine.
type Scheduler struct {
	Topo *topology.Topology
	Cfg  Config
	// RQs holds one runqueue per logical CPU.
	RQs []*Runqueue
	// Power holds the §4.3 per-CPU metrics (thermal power, max power).
	Power []*profile.CPUPower
	// Util holds the per-CPU busy-time trackers feeding utilization to
	// the DVFS governors (see util.go).
	Util []UtilTracker
	// Placement is the §4.6 initial-placement table.
	Placement *profile.PlacementTable
	// Hooks connect the scheduler to the driving machine.
	Hooks Hooks

	// MigrationCount counts all task migrations; per-reason counts are
	// in MigrationsByReason.
	MigrationCount     int64
	MigrationsByReason [4]int64

	// ledger is the runqueue occupancy ledger every runqueue of this
	// scheduler reports its mutations to.
	ledger occupancy
	// eligScratch is the reusable eligible-CPU buffer of PlaceNewTask.
	eligScratch []topology.CPUID
}

// occupancy is the runqueue occupancy ledger: the runnable-task counts
// per NUMA node and per package that §4.6 placement ranks CPUs by, and
// the machine-wide queued-task and idle-CPU counts that gate balance
// passes. Each runqueue mutation shifts it once (Runqueue.changed), so
// no reader scans the runqueues.
type occupancy struct {
	topo      *topology.Topology
	node, pkg []int32 // runnable tasks per node / per package
	queued    int     // waiting (non-running) tasks
	idle      int     // CPUs with nothing to run
}

// New creates a scheduler over the given topology, with an empty §4.6
// placement table. Per-CPU power trackers must be installed by the
// caller (the machine knows the thermal calibration); until then the
// scheduler treats all CPUs as having unlimited max power.
func New(topo *topology.Topology, cfg Config) *Scheduler {
	n := topo.Layout.NumLogical()
	s := &Scheduler{
		Topo:      topo,
		Cfg:       cfg,
		RQs:       make([]*Runqueue, n),
		Power:     make([]*profile.CPUPower, n),
		Util:      make([]UtilTracker, n),
		Placement: profile.NewPlacementTable(defaultPlacementW),
	}
	s.ledger = occupancy{
		topo: topo,
		node: make([]int32, topo.Layout.Nodes),
		pkg:  make([]int32, topo.Layout.NumPackages()),
		idle: n,
	}
	for i := range s.RQs {
		s.RQs[i] = NewRunqueue(topology.CPUID(i))
		s.RQs[i].ledger = &s.ledger
	}
	return s
}

// QueuedCount returns the machine-wide number of waiting (non-running)
// tasks from the occupancy ledger. When it is zero, every balancing
// pass is provably a no-op.
func (s *Scheduler) QueuedCount() int { return s.ledger.queued }

// IdleCPUCount returns the number of CPUs with nothing to run, from the
// occupancy ledger.
func (s *Scheduler) IdleCPUCount() int { return s.ledger.idle }

// RQ returns the runqueue of a CPU.
func (s *Scheduler) RQ(cpu topology.CPUID) *Runqueue { return s.RQs[int(cpu)] }

// MaxPower returns a CPU's maximum power, or +inf when not installed.
func (s *Scheduler) MaxPower(cpu topology.CPUID) float64 {
	if p := s.Power[int(cpu)]; p != nil && p.MaxPower > 0 {
		return p.MaxPower
	}
	return 1e18
}

// ThermalPower returns a CPU's thermal-power metric, 0 when no tracker
// is installed.
func (s *Scheduler) ThermalPower(cpu topology.CPUID) float64 {
	if s.Hooks.ThermalRead != nil {
		s.Hooks.ThermalRead(cpu)
	}
	if p := s.Power[int(cpu)]; p != nil {
		return p.ThermalPower()
	}
	return 0
}

// RQRatio returns the runqueue power ratio of a CPU (§4.3).
func (s *Scheduler) RQRatio(cpu topology.CPUID) float64 {
	return s.RQ(cpu).Power() / s.MaxPower(cpu)
}

// ThermalRatio returns the thermal power ratio of a CPU (§4.3).
func (s *Scheduler) ThermalRatio(cpu topology.CPUID) float64 {
	return s.ThermalPower(cpu) / s.MaxPower(cpu)
}

// Migrate moves a task to a destination CPU, paying the affinity
// penalty and notifying the hooks. The task may be queued or running on
// its source CPU; a running task is descheduled first (its timeslice
// ends with the move).
func (s *Scheduler) Migrate(t *Task, to topology.CPUID, reason MigrationReason) {
	from := t.CPU
	if from == to {
		return
	}
	if s.Hooks.BeforeMigrate != nil {
		s.Hooks.BeforeMigrate(t, from, to)
	}
	src := s.RQ(from)
	if src.Current == t {
		src.Deschedule(false)
	} else {
		src.RemoveQueued(t)
	}
	t.Migrations++
	if s.Topo.Layout.SameNode(from, to) {
		t.WarmupLeft = cacheWarmupMS
	} else {
		t.NodeMigrations++
		t.WarmupLeft = nodeWarmupMS
	}
	s.RQ(to).Enqueue(t)
	s.MigrationCount++
	s.MigrationsByReason[int(reason)]++
	if s.Hooks.AfterMigrate != nil {
		s.Hooks.AfterMigrate(t, from, to, reason)
	}
}

// groupRQLen returns the average runqueue length of a CPU group.
func (s *Scheduler) groupRQLen(group []topology.CPUID) float64 {
	sum := 0
	for _, c := range group {
		sum += s.RQ(c).Len()
	}
	return float64(sum) / float64(len(group))
}

// groupRQRatio returns the average runqueue power ratio of a group.
func (s *Scheduler) groupRQRatio(group []topology.CPUID) float64 {
	sum := 0.0
	for _, c := range group {
		sum += s.RQRatio(c)
	}
	return sum / float64(len(group))
}

// groupThermalRatio returns the average thermal power ratio of a group.
func (s *Scheduler) groupThermalRatio(group []topology.CPUID) float64 {
	sum := 0.0
	for _, c := range group {
		sum += s.ThermalRatio(c)
	}
	return sum / float64(len(group))
}

// AvgRQRatioAll returns the mean runqueue power ratio over all CPUs,
// the placement target of §4.6.
func (s *Scheduler) AvgRQRatioAll() float64 {
	sum := 0.0
	for i := range s.RQs {
		sum += s.RQRatio(topology.CPUID(i))
	}
	return sum / float64(len(s.RQs))
}

// TotalTasks returns the number of runnable tasks on all queues.
func (s *Scheduler) TotalTasks() int {
	n := 0
	for _, rq := range s.RQs {
		n += rq.Len()
	}
	return n
}
