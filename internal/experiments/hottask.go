package experiments

import (
	"fmt"
	"strings"

	"energysched/internal/machine"
	"energysched/internal/sched"
	"energysched/internal/workload"
)

// Figure9Result is the trace of Fig. 9: which logical CPU the single
// bitcnts task occupied at each sample time.
type Figure9Result struct {
	// TimesS and CPUs are parallel: the task ran on CPUs[i] at
	// TimesS[i] seconds.
	TimesS []float64
	CPUs   []int
	// Migrations is the raw migration log.
	Migrations []machine.MigrationEvent
	// CrossNode counts node-boundary crossings (the paper observes
	// none) and SiblingHops migrations onto the source package's own
	// sibling (likewise none).
	CrossNode   int
	SiblingHops int
	// ThrottledFrac is the average fraction of time CPUs were
	// throttled (≈0 with hot task migration).
	ThrottledFrac float64
}

// Figure9 runs §6.4's first experiment: SMT on, 40 W per package, one
// bitcnts task, hot task migration active. The task should hop to the
// coolest package of its node roughly every ten seconds, visiting the
// node's packages round-robin, never its own sibling and never the
// other node.
func (rc RunConfig) Figure9(seed uint64, durationMS int64) Figure9Result {
	layout := xseriesSMT()
	m := machine.MustNew(machine.Config{
		Layout:           layout,
		Sched:            sched.DefaultConfig(),
		Seed:             seed,
		PackageProps:     UniformProps(layout.NumPackages(), 0.2),
		PackageMaxPowerW: []float64{40}, // §6.4: 40 W per physical processor
		ThrottleEnabled:  true,
		Scope:            machine.ThrottlePerPackage,
	})
	task := m.Spawn(Catalog().Bitcnts())

	res := Figure9Result{}
	for t := int64(0); t < durationMS; t += 1000 {
		m.Run(1000)
		res.TimesS = append(res.TimesS, float64(t+1000)/1000)
		res.CPUs = append(res.CPUs, int(m.TaskCPU(task.ID)))
	}
	res.Migrations = append(res.Migrations, m.Migrations...)
	for _, ev := range m.Migrations {
		if layout.Node(ev.From) != layout.Node(ev.To) {
			res.CrossNode++
		}
		if layout.SamePackage(ev.From, ev.To) {
			res.SiblingHops++
		}
	}
	res.ThrottledFrac = m.AvgThrottledFrac()
	return res
}

// FormatFigure9 renders the trace as "time  cpu" pairs plus a summary.
func FormatFigure9(r Figure9Result) string {
	var b strings.Builder
	b.WriteString("Figure 9: Hot task migration of a single task\n")
	prev := -1
	for i, cpu := range r.CPUs {
		if cpu != prev {
			fmt.Fprintf(&b, "t=%6.0fs -> CPU %d\n", r.TimesS[i], cpu)
			prev = cpu
		}
	}
	fmt.Fprintf(&b, "migrations=%d crossNode=%d siblingHops=%d throttled=%.1f%%\n",
		len(r.Migrations), r.CrossNode, r.SiblingHops, r.ThrottledFrac*100)
	return b.String()
}

// Figure10Point is one bar of Fig. 10: the throughput increase of
// energy-aware scheduling for a given number of bitcnts tasks.
type Figure10Point struct {
	Tasks   int
	GainPct float64
}

// Figure10Config parameterizes the multi-task hot-migration experiment.
type Figure10Config struct {
	Seed      uint64
	WarmupMS  int64
	MeasureMS int64
	MaxTasks  int
}

// DefaultFigure10Config mirrors §6.4: up to 8 bitcnts tasks on the SMT
// machine with 40 W package budgets.
func DefaultFigure10Config() Figure10Config {
	return Figure10Config{Seed: 64, WarmupMS: 60_000, MeasureMS: 240_000, MaxTasks: 8}
}

// Figure10 measures the throughput gain as a function of the number of
// running bitcnts tasks: with one or two tasks there is always a cool
// target processor and throttling disappears; by eight tasks every
// package is hot and the gain collapses to zero (§6.4). Throughput is
// measured as steady-state work rate, which in this fixed-work setting
// is proportional to completions per unit time but free of completion-
// count quantization.
func (rc RunConfig) Figure10(cfg Figure10Config) ([]Figure10Point, error) {
	out := make([]Figure10Point, cfg.MaxTasks)
	err := rc.ForEach(cfg.MaxTasks, func(i int) {
		n := i + 1
		run := func(pol sched.Config) *machine.Machine {
			m := machine.MustNew(machine.Config{
				Layout:           xseriesSMT(),
				Sched:            pol,
				Seed:             cfg.Seed + uint64(n),
				PackageProps:     UniformProps(8, 0.2),
				PackageMaxPowerW: []float64{40},
				ThrottleEnabled:  true,
				Scope:            machine.ThrottlePerPackage,
			})
			m.SpawnN(Catalog().Bitcnts(), n) // endless instances, as in §6.4
			m.Run(cfg.WarmupMS)
			m.ResetStats()
			m.Run(cfg.MeasureMS)
			return m
		}
		off, on := policyPair(run)
		pt := Figure10Point{Tasks: n}
		if off.WorkRate() > 0 {
			pt.GainPct = (on.WorkRate()/off.WorkRate() - 1) * 100
		}
		out[i] = pt
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// HotTaskSpeedupResult reproduces the §6.4 headline numbers: the
// reduction in execution time of a single bitcnts task from hot task
// migration, at 40 W and 50 W package budgets (paper: 43 % and 21 %).
type HotTaskSpeedupResult struct {
	BudgetW           float64
	BaselineMS        int64 // execution time without hot task migration
	MigrationMS       int64 // execution time with hot task migration
	TimeReductionPct  float64
	ThroughputGainPct float64
}

// HotTaskSpeedup measures the execution time of a fixed amount of work
// (workMS of CPU time at full speed) for one bitcnts task, with and
// without hot task migration, under the given package budget.
func (rc RunConfig) HotTaskSpeedup(seed uint64, budgetW, workMS float64) HotTaskSpeedupResult {
	exec := func(pol sched.Config) int64 {
		m := machine.MustNew(machine.Config{
			Layout:           xseriesSMT(),
			Sched:            pol,
			Seed:             seed,
			PackageProps:     UniformProps(8, 0.2),
			PackageMaxPowerW: []float64{budgetW},
			ThrottleEnabled:  true,
			Scope:            machine.ThrottlePerPackage,
		})
		m.Spawn(workload.WithWork(Catalog().Bitcnts(), workMS))
		for m.Completions == 0 {
			m.Run(1000)
			if m.NowMS() > int64(workMS)*100 {
				break // safety: > 99 % throttled would be a bug
			}
		}
		return m.NowMS()
	}
	base := exec(sched.BaselineConfig())
	mig := exec(sched.DefaultConfig())
	res := HotTaskSpeedupResult{BudgetW: budgetW, BaselineMS: base, MigrationMS: mig}
	if base > 0 {
		res.TimeReductionPct = (1 - float64(mig)/float64(base)) * 100
	}
	if mig > 0 {
		res.ThroughputGainPct = (float64(base)/float64(mig) - 1) * 100
	}
	return res
}

// FormatHotTaskSpeedup renders one speedup measurement.
func FormatHotTaskSpeedup(r HotTaskSpeedupResult) string {
	return fmt.Sprintf("budget %.0fW: baseline %.1fs, with migration %.1fs → time −%.0f%%, throughput +%.0f%%\n",
		r.BudgetW, float64(r.BaselineMS)/1000, float64(r.MigrationMS)/1000,
		r.TimeReductionPct, r.ThroughputGainPct)
}
