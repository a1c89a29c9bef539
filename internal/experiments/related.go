package experiments

import (
	"fmt"
	"strings"

	"energysched/internal/machine"
	"energysched/internal/sched"
	"energysched/internal/thermal"
	"energysched/internal/topology"
	"energysched/internal/workload"
)

// PolicyComparisonResult quantifies the paper's §2.3 argument against
// per-task throttling [24]: "We argue that in multiprocessor systems,
// if there are cooler processors, migrating a hot task to such a
// processor is superior to throttling." Three temperature-control
// policies run the same mixed workload on an unevenly cooled machine:
//
//   - CPU throttling: the baseline — an overheating CPU is halted
//     outright, penalizing all of its tasks;
//   - hot-task throttling (Rohou & Smith): only the tasks responsible
//     for the heat are halted, cool queue-mates keep running;
//   - energy-aware scheduling (the paper): heat is balanced away so
//     throttling (of either kind) rarely engages at all.
type PolicyComparisonResult struct {
	// WorkRateCPUThrottle etc. are the steady-state work rates (in
	// "full CPUs") of the three policies.
	WorkRateCPUThrottle  float64
	WorkRateTaskThrottle float64
	WorkRateEnergyAware  float64
	// ThrottledCPU/Task/Aware are the average throttled fractions.
	ThrottledCPU   float64
	ThrottledTask  float64
	ThrottledAware float64
	// HotShareCPU/Task/Aware are the fraction of machine work done by
	// the hot (bitcnts) tasks — the fairness dimension: per-task
	// throttling buys its throughput by starving exactly the hot
	// tasks, while migration keeps them progressing at full speed.
	HotShareCPU   float64
	HotShareTask  float64
	HotShareAware float64
}

// GainTaskPct returns hot-task throttling's gain over CPU throttling.
func (r PolicyComparisonResult) GainTaskPct() float64 {
	if r.WorkRateCPUThrottle == 0 {
		return 0
	}
	return (r.WorkRateTaskThrottle/r.WorkRateCPUThrottle - 1) * 100
}

// GainAwarePct returns energy-aware scheduling's gain over CPU
// throttling.
func (r PolicyComparisonResult) GainAwarePct() float64 {
	if r.WorkRateCPUThrottle == 0 {
		return 0
	}
	return (r.WorkRateEnergyAware/r.WorkRateCPUThrottle - 1) * 100
}

// PolicyComparison runs the three policies on a 4-CPU machine with two
// poorly cooled and two well cooled packages, loaded with two tasks per
// CPU — each poorly cooled CPU gets one hot and one cool task, so
// hot-task throttling has cool work to favour and energy balancing has
// heat to move.
func (rc RunConfig) PolicyComparison(seed uint64, measureMS int64) PolicyComparisonResult {
	layout := topology.Layout{Nodes: 1, PackagesPerNode: 4, ThreadsPerPackage: 1}
	// Two poor packages (budget ≈ 43 W, below the hot mixes), two good
	// ones (≈ 87 W, never throttle).
	props := []thermal.Properties{
		{R: 0.30, C: 50, AmbientC: 25},
		{R: 0.30, C: 50, AmbientC: 25},
		{R: 0.15, C: 100, AmbientC: 25},
		{R: 0.15, C: 100, AmbientC: 25},
	}
	run := func(pol sched.Config, taskThrottling bool) (*machine.Machine, float64) {
		m := machine.MustNew(machine.Config{
			Layout:          layout,
			Sched:           pol,
			Seed:            seed,
			PackageProps:    props,
			LimitTempC:      38,
			ThrottleEnabled: true,
			Scope:           machine.ThrottlePerLogical,
			TaskThrottling:  taskThrottling,
		})
		// Spawn order pairs one hot and one cool task on each CPU via
		// the load-spreading placement: the poorly cooled CPUs 0 and 1
		// end up with {bitcnts 61 W, memrw 38 W} — a hot task the
		// task-level throttle can single out next to cool work it can
		// keep running.
		cat := Catalog()
		var hotIDs []int
		for _, p := range []*workload.Program{cat.Bitcnts(), cat.Pushpop(), cat.Memrw(), cat.Aluadd()} {
			for i := 0; i < 2; i++ { // endless instances: stable queues
				t := m.Spawn(p)
				if p.Name == "bitcnts" {
					hotIDs = append(hotIDs, t.ID)
				}
			}
		}
		m.Run(40_000)
		m.ResetStats()
		hotBefore := 0.0
		for _, id := range hotIDs {
			hotBefore += m.TaskWorkDone(id)
		}
		m.Run(measureMS)
		hotWork := -hotBefore
		for _, id := range hotIDs {
			hotWork += m.TaskWorkDone(id)
		}
		share := 0.0
		if m.WorkDoneMS > 0 {
			share = hotWork / m.WorkDoneMS
		}
		return m, share
	}
	cpuT, shareCPU := run(sched.BaselineConfig(), false)
	taskT, shareTask := run(sched.BaselineConfig(), true)
	aware, shareAware := run(sched.DefaultConfig(), false)
	return PolicyComparisonResult{
		WorkRateCPUThrottle:  cpuT.WorkRate(),
		WorkRateTaskThrottle: taskT.WorkRate(),
		WorkRateEnergyAware:  aware.WorkRate(),
		ThrottledCPU:         cpuT.AvgThrottledFrac(),
		ThrottledTask:        taskT.AvgThrottledFrac(),
		ThrottledAware:       aware.AvgThrottledFrac(),
		HotShareCPU:          shareCPU,
		HotShareTask:         shareTask,
		HotShareAware:        shareAware,
	}
}

// FormatPolicyComparison renders the comparison.
func FormatPolicyComparison(r PolicyComparisonResult) string {
	var b strings.Builder
	b.WriteString("Temperature-control policy comparison (§2.3 argument):\n")
	fmt.Fprintf(&b, "%-28s %10s %11s %15s\n", "policy", "work rate", "throttled", "hot-task share")
	fmt.Fprintf(&b, "%-28s %9.2f %10.1f%% %14.1f%%\n", "CPU throttling", r.WorkRateCPUThrottle, r.ThrottledCPU*100, r.HotShareCPU*100)
	fmt.Fprintf(&b, "%-28s %9.2f %10.1f%% %14.1f%%  (%+.1f%%)\n", "hot-task throttling [24]", r.WorkRateTaskThrottle, r.ThrottledTask*100, r.HotShareTask*100, r.GainTaskPct())
	fmt.Fprintf(&b, "%-28s %9.2f %10.1f%% %14.1f%%  (%+.1f%%)\n", "energy-aware scheduling", r.WorkRateEnergyAware, r.ThrottledAware*100, r.HotShareAware*100, r.GainAwarePct())
	return b.String()
}
