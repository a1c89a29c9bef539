package experiments

import (
	"fmt"
	"strings"

	"energysched/internal/dvfs"
	"energysched/internal/machine"
	"energysched/internal/sched"
	"energysched/internal/workload"
)

// This file runs the comparison the paper could not: §6.2 enforces the
// temperature limit by duty-cycle hlt throttling and names frequency
// scaling as the alternative knob. With per-CPU P-states in the
// simulator, both knobs can police the *same* power budget on the same
// workload, with energy, makespan, peak temperature, and the
// halted/downclocked fractions measured on identical seeds.

// DVFSRow is one enforcement policy's outcome on the hot-task
// scenario.
type DVFSRow struct {
	// Policy labels the enforcement knob ("hlt-throttle",
	// "dvfs-thermal", ...).
	Policy string
	// MakespanMS is the time to finish the fixed work.
	MakespanMS int64
	// EnergyJ is the machine's true energy over the makespan (all
	// CPUs, busy and idle).
	EnergyJ float64
	// AvgPowerW is EnergyJ over the makespan.
	AvgPowerW float64
	// PeakTempC is the hottest core temperature observed.
	PeakTempC float64
	// HaltedFrac and DownclockedFrac are the machine-average wall-time
	// fractions a CPU spent throttle-halted vs occupied-and-running
	// below nominal frequency — the two enforcement signatures.
	// Averaged over ALL CPUs and wall time, not conditioned on
	// occupancy (idle CPUs dilute both equally, so the columns stay
	// comparable across rows).
	HaltedFrac      float64
	DownclockedFrac float64
	// PStateSwitches counts completed P-state transitions.
	PStateSwitches int64
	// DNF marks a run the safety cap cut off before every task
	// completed; MakespanMS (and everything derived from it) is then
	// only a lower bound.
	DNF bool
}

// dvfsPropsR is the per-package thermal resistance (°C/W) of the
// comparison machine — one constant shared by the run and the table
// header's derived limit temperature.
const dvfsPropsR = 0.2

// DVFSComparisonConfig parameterizes the enforcement comparison.
type DVFSComparisonConfig struct {
	Seed uint64
	// BudgetW is the per-package power budget both knobs enforce.
	BudgetW float64
	// WorkMS is the fixed work of each hot task.
	WorkMS float64
	// Tasks is the number of hot (bitcnts) tasks.
	Tasks int
	// Governors lists the DVFS governors to compare against the
	// throttle (each becomes a "dvfs-<name>" row).
	Governors []string
}

// DefaultDVFSComparisonConfig mirrors the §6.2/§6.4 hot-task setup on
// the non-SMT machine with per-logical budgets, so the hlt throttle
// and the per-CPU governors police identical limits.
func DefaultDVFSComparisonConfig() DVFSComparisonConfig {
	return DVFSComparisonConfig{
		Seed:      2006,
		BudgetW:   40,
		WorkMS:    60_000,
		Tasks:     2,
		Governors: []string{"thermal", "ondemand"},
	}
}

// DVFSComparisonResult is the table of the enforcement comparison.
type DVFSComparisonResult struct {
	Cfg  DVFSComparisonConfig
	Rows []DVFSRow
}

// DVFSvsThrottle runs the enforcement comparison: the same fixed-work
// hot tasks, pinned by baseline scheduling (no migration escape
// hatch), finished under (a) hlt throttling alone and (b) each
// requested DVFS governor with the throttle kept as backstop — so
// every row genuinely enforces the budget, and the halted vs
// downclocked columns show which mechanism did the enforcing (the
// thermal governor pre-empts the throttle entirely; ondemand ignores
// heat and degenerates to duty-cycling). Rows report the
// energy/makespan/temperature triangle plus that mechanism split.
func (rc RunConfig) DVFSvsThrottle(cfg DVFSComparisonConfig) DVFSComparisonResult {
	run := func(policy string, d *dvfs.Config) DVFSRow {
		m := machine.MustNew(machine.Config{
			Layout:           xseriesNoSMT(),
			Sched:            sched.BaselineConfig(),
			Seed:             cfg.Seed,
			PackageProps:     UniformProps(8, dvfsPropsR),
			PackageMaxPowerW: []float64{cfg.BudgetW},
			ThrottleEnabled:  true,
			Scope:            machine.ThrottlePerLogical,
			DVFS:             d,
		})
		for i := 0; i < cfg.Tasks; i++ {
			m.Spawn(workload.WithWork(Catalog().Bitcnts(), cfg.WorkMS))
		}
		// 10 ms chunks: makespan resolves to the chunk size, so
		// sub-second differences between enforcement knobs survive and
		// post-completion idle energy stays negligible. (Chunking does
		// not change behaviour — machine runs are partition-invariant.)
		for m.Completions < int64(cfg.Tasks) {
			m.Run(10)
			if m.NowMS() > int64(cfg.WorkMS)*100 {
				break // safety: >99 % enforcement would be a bug
			}
		}
		row := DVFSRow{
			Policy:          policy,
			DNF:             m.Completions < int64(cfg.Tasks),
			MakespanMS:      m.NowMS(),
			EnergyJ:         m.TrueEnergyJ,
			PeakTempC:       m.PeakTempC(),
			HaltedFrac:      m.AvgThrottledFrac(),
			DownclockedFrac: m.AvgDownclockedFrac(),
			PStateSwitches:  m.PStateSwitches,
		}
		if row.MakespanMS > 0 {
			row.AvgPowerW = row.EnergyJ / (float64(row.MakespanMS) / 1000)
		}
		return row
	}
	res := DVFSComparisonResult{Cfg: cfg}
	res.Rows = append(res.Rows, run("hlt-throttle", nil))
	for _, g := range cfg.Governors {
		res.Rows = append(res.Rows, run("dvfs-"+g, &dvfs.Config{Governor: g}))
	}
	return res
}

// FormatDVFSComparison renders the enforcement comparison table.
func FormatDVFSComparison(r DVFSComparisonResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "DVFS governors vs hlt throttling: %d bitcnts × %.0fs work, %.0f W budget (limit temp %.1f °C)\n",
		r.Cfg.Tasks, r.Cfg.WorkMS/1000, r.Cfg.BudgetW, UniformProps(1, dvfsPropsR)[0].SteadyTemp(r.Cfg.BudgetW))
	fmt.Fprintf(&b, "%-14s %10s %10s %9s %9s %8s %8s %9s\n",
		"policy", "makespan", "energy", "avg W", "peak °C", "halted", "downclk", "switches")
	for _, row := range r.Rows {
		makespan := fmt.Sprintf("%.1fs", float64(row.MakespanMS)/1000)
		if row.DNF {
			// The safety cap ended the run with tasks unfinished;
			// every column is a truncated-window measurement.
			makespan = ">" + makespan + " DNF"
		}
		fmt.Fprintf(&b, "%-14s %10s %9.0fJ %9.1f %9.2f %7.1f%% %7.1f%% %9d\n",
			row.Policy, makespan, row.EnergyJ, row.AvgPowerW,
			row.PeakTempC, row.HaltedFrac*100, row.DownclockedFrac*100, row.PStateSwitches)
	}
	return b.String()
}
