package experiments

import (
	"fmt"
	"strings"

	"energysched/internal/counters"
	"energysched/internal/machine"
	"energysched/internal/rng"
	"energysched/internal/sched"
	"energysched/internal/stats"
	"energysched/internal/topology"
	"energysched/internal/workload"
)

// Table1Row is one line of Table 1: change in power consumption during
// successive timeslices of one program.
type Table1Row struct {
	Program string
	MaxPct  float64
	AvgPct  float64
}

// Table1 measures, for each Table 1 program, the processor's power
// during several hundred successive timeslices of a solo run and
// reports the maximum and average relative change — the experiment
// behind the paper's claim that a task's last-timeslice energy is a
// good predictor of the next (§3.3).
func Table1(seed uint64, slices int) []Table1Row {
	model := Model()
	est, err := CalibratedEstimator(seed)
	if err != nil {
		est = nil // fall back to ground truth below
	}
	var rows []Table1Row
	for _, prog := range Catalog().Table1Set() {
		task := workload.NewTask(0, prog, rng.New(seed^prog.Binary))
		powers := make([]float64, 0, slices)
		for s := 0; s < slices; s++ {
			var cnt counters.Counts
			ran := 0.0
			for ms := 0; ms < 100; ms++ {
				res := task.Tick(1, 1)
				cnt = cnt.Add(res.Counts)
				ran++
				if res.Status == workload.Blocked {
					break // slice ends early; power is over the executed part
				}
			}
			var watts float64
			if est != nil {
				watts = est.PowerW(cnt, 0, ran)
			} else {
				watts = model.EnergyJ(cnt, 0) / (ran / 1000)
			}
			powers = append(powers, watts)
		}
		maxPct, avgPct := stats.SuccessiveChange(powers)
		rows = append(rows, Table1Row{Program: prog.Name, MaxPct: maxPct, AvgPct: avgPct})
	}
	return rows
}

// FormatTable1 renders rows in the paper's layout.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: Change in power consumption during successive timeslices\n")
	fmt.Fprintf(&b, "%-10s %9s %9s\n", "program", "maximum", "average")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %8.1f%% %8.2f%%\n", r.Program, r.MaxPct, r.AvgPct)
	}
	return b.String()
}

// Table2Row is one line of Table 2: a program and its measured power.
type Table2Row struct {
	Program  string
	MinWatts float64
	MaxWatts float64
}

// Table2 measures each test program's power with the calibrated
// estimator over a solo run, reporting a range for phase-varying
// programs (openssl) and a point for the static ones. It returns the
// calibration error, if any, instead of guessing at a fallback — a
// mis-calibrated estimator would silently skew every row.
func Table2(seed uint64, runMS int) ([]Table2Row, error) {
	est, err := calibrated(seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: table 2 calibration: %w", err)
	}
	var rows []Table2Row
	for _, prog := range Catalog().Table2Set() {
		task := workload.NewTask(0, prog, rng.New(seed^prog.Binary))
		// Per-second power samples over the run.
		var samples []float64
		for s := 0; s < runMS/1000; s++ {
			var cnt counters.Counts
			for ms := 0; ms < 1000; ms++ {
				cnt = cnt.Add(task.Tick(1, 1).Counts)
			}
			samples = append(samples, est.PowerW(cnt, 0, 1000))
		}
		lo, hi := stats.Percentile(samples, 5), stats.Percentile(samples, 95)
		rows = append(rows, Table2Row{Program: prog.Name, MinWatts: lo, MaxWatts: hi})
	}
	return rows, nil
}

// FormatTable2 renders rows in the paper's layout.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: Programs used for the tests\n")
	fmt.Fprintf(&b, "%-10s %s\n", "program", "power")
	for _, r := range rows {
		if r.MaxWatts-r.MinWatts > 4 {
			fmt.Fprintf(&b, "%-10s %.0fW - %.0fW\n", r.Program, r.MinWatts, r.MaxWatts)
		} else {
			fmt.Fprintf(&b, "%-10s %.0fW\n", r.Program, (r.MinWatts+r.MaxWatts)/2)
		}
	}
	return b.String()
}

// Table3Row is one line of Table 3: a logical CPU's throttling
// percentage with energy balancing disabled and enabled.
type Table3Row struct {
	CPU      topology.CPUID
	Disabled float64 // fraction throttled, balancing disabled
	Enabled  float64 // fraction throttled, balancing enabled
}

// Table3Result is the full §6.2 temperature-control experiment.
type Table3Result struct {
	Rows        []Table3Row // CPUs that throttled in either run
	AvgDisabled float64     // machine-wide average, balancing disabled
	AvgEnabled  float64     // machine-wide average, balancing enabled
	// ThroughputGain is the relative throughput increase from energy-
	// aware scheduling (the paper reports +4.7 %).
	ThroughputGain float64
}

// Table3Config parameterizes the experiment.
type Table3Config struct {
	Seed uint64
	// WarmupMS runs before measurement starts (thermal transient).
	WarmupMS int64
	// MeasureMS is the measured steady-state window.
	MeasureMS int64
	// TaskWorkMS is the CPU time each task instance needs; instances
	// respawn on completion. Small values reproduce the short-task
	// variant of §6.2 (placement-dominated, +4.9 %).
	TaskWorkMS float64
	// PerProgram instances of each Table 2 program (paper: 6 with SMT
	// for 36 tasks).
	PerProgram int
}

// DefaultTable3Config mirrors §6.2: SMT on, 36 tasks, 38 °C limit.
func DefaultTable3Config() Table3Config {
	return Table3Config{Seed: 2006, WarmupMS: 60_000, MeasureMS: 300_000, TaskWorkMS: 15_000, PerProgram: 6}
}

// Table3 runs the §6.2 experiment: the mixed workload under a 38 °C
// limit with per-CPU calibrated thermal models, once with energy-aware
// scheduling disabled and once enabled, and reports per-CPU throttling
// percentages and the throughput gain.
// It returns the §3.2 calibration error, if any: the experiment's
// whole point is throttling behaviour under the *estimated* powers, so
// running it without a calibrated estimator would not be Table 3.
func (rc RunConfig) Table3(cfg Table3Config) (Table3Result, error) {
	est, err := calibrated(cfg.Seed)
	if err != nil {
		return Table3Result{}, fmt.Errorf("experiments: table 3 calibration: %w", err)
	}
	run := func(pol sched.Config) *machine.Machine {
		m := machine.MustNew(machine.Config{
			Layout:          xseriesSMT(),
			Sched:           pol,
			Seed:            cfg.Seed,
			PackageProps:    ReferenceProps(),
			LimitTempC:      38,
			ThrottleEnabled: true,
			Scope:           machine.ThrottlePerLogical,
			Estimator:       est,
			RespawnFinished: true,
		})
		mixedWorkload(m, cfg.PerProgram, cfg.TaskWorkMS)
		m.Run(cfg.WarmupMS)
		m.ResetStats()
		m.Run(cfg.MeasureMS)
		return m
	}
	off, on := policyPair(run)

	res := Table3Result{}
	n := off.Cfg.Layout.NumLogical()
	for c := 0; c < n; c++ {
		cpu := topology.CPUID(c)
		d, e := off.ThrottledFrac(cpu), on.ThrottledFrac(cpu)
		if d > 0.001 || e > 0.001 {
			res.Rows = append(res.Rows, Table3Row{CPU: cpu, Disabled: d, Enabled: e})
		}
	}
	res.AvgDisabled = off.AvgThrottledFrac()
	res.AvgEnabled = on.AvgThrottledFrac()
	// Steady-state work rate is the low-variance equivalent of tasks
	// finished per unit time (the tasks are fixed-work and respawn).
	if off.WorkRate() > 0 {
		res.ThroughputGain = on.WorkRate()/off.WorkRate() - 1
	}
	return res, nil
}

// FormatTable3 renders the result in the paper's layout.
func FormatTable3(r Table3Result) string {
	var b strings.Builder
	b.WriteString("Table 3: CPU throttling percentage\n")
	fmt.Fprintf(&b, "%-12s %22s %22s\n", "logical CPU", "energy bal. disabled", "energy bal. enabled")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12d %21.1f%% %21.1f%%\n", row.CPU, row.Disabled*100, row.Enabled*100)
	}
	fmt.Fprintf(&b, "%-12s %21.1f%% %21.1f%%\n", "average", r.AvgDisabled*100, r.AvgEnabled*100)
	fmt.Fprintf(&b, "throughput increase: %.1f%%\n", r.ThroughputGain*100)
	return b.String()
}
