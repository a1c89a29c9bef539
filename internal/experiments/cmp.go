package experiments

import (
	"fmt"
	"strings"

	"energysched/internal/machine"
	"energysched/internal/sched"
	"energysched/internal/topology"
)

// CMPResult summarizes the §7 chip-multiprocessor extension experiment:
// a single hot task on a machine of multi-core packages, with hot task
// migration extended by the "mc" domain level.
type CMPResult struct {
	// TraceCores is the core the task occupied, sampled once per
	// second.
	TraceCores []int
	// IntraChipHops counts migrations between cores of the same
	// package (the cheap moves the §7 extension enables);
	// CrossChipHops counts package-crossing migrations.
	IntraChipHops int
	CrossChipHops int
	// GainPct is the work-rate gain of energy-aware scheduling over
	// the baseline under per-core throttling.
	GainPct float64
	// ThrottledBaseline/ThrottledAware are the average throttled
	// fractions of the two runs.
	ThrottledBaseline float64
	ThrottledAware    float64
	// CoupledTempC and IsolatedTempC demonstrate the "greater thermal
	// stress" of CMPs (§7): the steady hottest-core temperature when
	// two hot tasks share a chip vs when they run on separate chips.
	CoupledTempC  float64
	IsolatedTempC float64
}

// cmpLayout is the experiment machine: one node, two dual-core
// packages, SMT off — four cores, four logical CPUs.
func cmpLayout() topology.Layout { return topology.CMP2x2() }

// CMPHotTask runs the §7 extension experiment. Package budgets are set
// so a core can burst the 61 W bitcnts task but not sustain it; with
// hot task migration the task rotates between cores — preferring the
// own chip's other core when it has cooled enough, crossing chips
// otherwise — and escapes throttling.
func (rc RunConfig) CMPHotTask(seed uint64, durationMS int64) CMPResult {
	layout := cmpLayout()
	mk := func(pol sched.Config) *machine.Machine {
		return machine.MustNew(machine.Config{
			Layout:           layout,
			Sched:            pol,
			Seed:             seed,
			PackageProps:     UniformProps(layout.NumPackages(), 0.1),
			PackageMaxPowerW: []float64{100}, // core budget 100/2/1.35 ≈ 37 W
			ThrottleEnabled:  true,
			Scope:            machine.ThrottlePerCore,
		})
	}

	res := CMPResult{}

	// Baseline: the task stays put and is throttled.
	base := mk(sched.BaselineConfig())
	base.Spawn(Catalog().Bitcnts())
	base.Run(30_000)
	base.ResetStats()
	base.Run(durationMS)
	res.ThrottledBaseline = base.AvgThrottledFrac()

	// Energy-aware: hot task migration with the mc level.
	aware := mk(sched.DefaultConfig())
	task := aware.Spawn(Catalog().Bitcnts())
	aware.Run(30_000)
	aware.ResetStats()
	for t := int64(0); t < durationMS; t += 1000 {
		aware.Run(1000)
		res.TraceCores = append(res.TraceCores, layout.Core(aware.TaskCPU(task.ID)))
	}
	res.ThrottledAware = aware.AvgThrottledFrac()
	for _, ev := range aware.Migrations {
		if layout.SamePackage(ev.From, ev.To) {
			res.IntraChipHops++
		} else {
			res.CrossChipHops++
		}
	}
	if base.WorkRate() > 0 {
		res.GainPct = (aware.WorkRate()/base.WorkRate() - 1) * 100
	}

	// Thermal-stress demonstration: two hot tasks sharing a chip run
	// hotter than two on separate chips at identical total power.
	res.CoupledTempC = cmpPairTemp(seed, true)
	res.IsolatedTempC = cmpPairTemp(seed, false)
	return res
}

// cmpPairTemp runs two endless bitcnts tasks pinned by placement — on
// the same chip when shared is true, on different chips otherwise — and
// returns the hottest core temperature after thermal settling. No
// throttling, no migration: this isolates the coupling physics.
func cmpPairTemp(seed uint64, shared bool) float64 {
	layout := cmpLayout()
	pol := sched.BaselineConfig()
	pol.HotCheckPeriodMS = 0
	pol.BalancePeriodMS = 0
	m := machine.MustNew(machine.Config{
		Layout:       layout,
		Sched:        pol,
		Seed:         seed,
		PackageProps: UniformProps(layout.NumPackages(), 0.1),
	})
	// Baseline placement spreads node→package→core, so two spawns land
	// on different packages. For the shared-chip case, spawn four and
	// let the two on package 1 idle... instead, place explicitly via
	// the scheduler's queues.
	t1 := m.Spawn(Catalog().Bitcnts())
	t2 := m.Spawn(Catalog().Bitcnts())
	want1, want2 := topology.CPUID(0), topology.CPUID(2) // separate chips (cores 0 and 2)
	if shared {
		want2 = 1 // same chip as core 0
	}
	m.Sched.Migrate(t1, want1, sched.MigrateLoad)
	m.Sched.Migrate(t2, want2, sched.MigrateLoad)
	m.Run(120_000) // ≫ τ: fully settled
	hottest := 0.0
	for c := 0; c < layout.NumCores(); c++ {
		if t := m.CoreTemp(c); t > hottest {
			hottest = t
		}
	}
	return hottest
}

// FormatCMP renders the CMP experiment.
func FormatCMP(r CMPResult) string {
	var b strings.Builder
	b.WriteString("§7 CMP extension: one hot task on 2 dual-core chips\n")
	prev := -1
	for i, c := range r.TraceCores {
		if c != prev {
			fmt.Fprintf(&b, "t=%4ds -> core %d\n", i, c)
			prev = c
		}
	}
	fmt.Fprintf(&b, "hops: %d intra-chip, %d cross-chip\n", r.IntraChipHops, r.CrossChipHops)
	fmt.Fprintf(&b, "throttled: baseline %.0f%%, energy-aware %.0f%% → throughput %+.0f%%\n",
		r.ThrottledBaseline*100, r.ThrottledAware*100, r.GainPct)
	fmt.Fprintf(&b, "thermal stress: two hot tasks on one chip %.1f °C vs separate chips %.1f °C\n",
		r.CoupledTempC, r.IsolatedTempC)
	return b.String()
}
