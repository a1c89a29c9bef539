package energysched

import (
	"energysched/internal/experiments"
)

// Re-exported experiment result types.
type (
	// Table1Row is one program's successive-timeslice power change.
	Table1Row = experiments.Table1Row
	// Table2Row is one program's measured power.
	Table2Row = experiments.Table2Row
	// Table3Result is the §6.2 throttling/throughput comparison.
	Table3Result = experiments.Table3Result
	// Figure3Result holds the temperature/power/thermal-power curves.
	Figure3Result = experiments.Figure3Result
	// ThermalTraceResult holds the Fig. 6/7 per-CPU curves.
	ThermalTraceResult = experiments.ThermalTraceResult
	// Figure8Point is one workload-mix throughput gain.
	Figure8Point = experiments.Figure8Point
	// Figure9Result is the single-hot-task migration trace.
	Figure9Result = experiments.Figure9Result
	// Figure10Point is one task-count throughput gain.
	Figure10Point = experiments.Figure10Point
	// HotTaskSpeedupResult is the §6.4 execution-time comparison.
	HotTaskSpeedupResult = experiments.HotTaskSpeedupResult
	// MigrationCountsResult is the §6.1 migration accounting.
	MigrationCountsResult = experiments.MigrationCountsResult
	// CMPResult is the §7 chip-multiprocessor extension experiment.
	CMPResult = experiments.CMPResult
	// AblationResult is one §4.3 balancer-metric ablation row.
	AblationResult = experiments.AblationResult
	// PolicyComparisonResult compares CPU/task throttling vs migration.
	PolicyComparisonResult = experiments.PolicyComparisonResult
	// UnitAwareResult is the §7 functional-unit extension experiment.
	UnitAwareResult = experiments.UnitAwareResult
	// DVFSComparisonResult tabulates DVFS governors against hlt
	// throttling as thermal-limit enforcement knobs.
	DVFSComparisonResult = experiments.DVFSComparisonResult

	// RunConfig carries the execution knob of a reproduction run: the
	// worker-pool size. Results never depend on it: every experiment
	// is byte-identical for every RunConfig (the deterministic worker
	// pool guarantees it). Experiment machines always run on the
	// default async engine.
	RunConfig = experiments.RunConfig
)

// A Reproducer regenerates the paper's tables and figures under an
// explicit RunConfig. The zero value (GOMAXPROCS workers) is ready to
// use:
//
//	var r energysched.Reproducer
//	rows := r.Table1(7, 300)
type Reproducer struct {
	// RC is the execution configuration shared by every experiment the
	// Reproducer runs.
	RC RunConfig
}

// Table1 regenerates Table 1 (per-timeslice power change).
func (r Reproducer) Table1(seed uint64, slices int) []Table1Row {
	return experiments.Table1(seed, slices)
}

// Table2 regenerates Table 2 (program powers) from a solo run of runMS
// milliseconds per program. It returns an error when the §3.2
// energy-weight calibration the table depends on fails.
func (r Reproducer) Table2(seed uint64, runMS int) ([]Table2Row, error) {
	return experiments.Table2(seed, runMS)
}

// Table3 regenerates Table 3 (CPU throttling percentages and the §6.2
// throughput gain) with the default configuration. It returns an error
// when the §3.2 calibration fails.
func (r Reproducer) Table3(seed uint64) (Table3Result, error) {
	cfg := experiments.DefaultTable3Config()
	cfg.Seed = seed
	return r.RC.Table3(cfg)
}

// Figure3 regenerates the Fig. 3 temperature/power/thermal-power
// relationship.
func (r Reproducer) Figure3() Figure3Result { return experiments.Figure3() }

// Figure6 regenerates Fig. 6 (thermal power of the eight CPUs, energy
// balancing disabled); Figure7 the enabled counterpart.
func (r Reproducer) Figure6(seed uint64) ThermalTraceResult {
	cfg := experiments.DefaultThermalTraceConfig(false)
	cfg.Seed = seed
	return r.RC.ThermalTrace(cfg)
}

// Figure7 regenerates Fig. 7 (energy balancing enabled).
func (r Reproducer) Figure7(seed uint64) ThermalTraceResult {
	cfg := experiments.DefaultThermalTraceConfig(true)
	cfg.Seed = seed
	return r.RC.ThermalTrace(cfg)
}

// Figure8 regenerates the Fig. 8 workload-homogeneity sweep. It
// returns an error when one of the parallel runs fails (a recovered
// worker panic, surfaced on its owning sweep slot).
func (r Reproducer) Figure8(seed uint64) ([]Figure8Point, error) {
	cfg := experiments.DefaultFigure8Config()
	cfg.Seed = seed
	return r.RC.Figure8(cfg)
}

// Figure9 regenerates the Fig. 9 hot-task migration trace over
// durationMS milliseconds.
func (r Reproducer) Figure9(seed uint64, durationMS int64) Figure9Result {
	return r.RC.Figure9(seed, durationMS)
}

// Figure10 regenerates the Fig. 10 multi-task sweep. It returns an
// error when one of the parallel runs fails.
func (r Reproducer) Figure10(seed uint64) ([]Figure10Point, error) {
	cfg := experiments.DefaultFigure10Config()
	cfg.Seed = seed
	return r.RC.Figure10(cfg)
}

// HotTaskSpeedup regenerates the §6.4 execution-time numbers for a
// package budget.
func (r Reproducer) HotTaskSpeedup(seed uint64, budgetW float64) HotTaskSpeedupResult {
	return r.RC.HotTaskSpeedup(seed, budgetW, 60_000)
}

// MigrationCounts regenerates the §6.1 migration counts over
// durationMS milliseconds per run (the paper uses 15 minutes). It
// returns an error when one of the parallel runs fails.
func (r Reproducer) MigrationCounts(seed uint64, durationMS int64) (MigrationCountsResult, error) {
	return r.RC.MigrationCounts(seed, durationMS)
}

// CMP runs the §7 chip-multiprocessor extension: hot task migration
// with the additional "mc" domain level on a machine of dual-core
// packages.
func (r Reproducer) CMP(seed uint64, durationMS int64) CMPResult {
	return r.RC.CMPHotTask(seed, durationMS)
}

// Ablations runs the §4.3 balancer-metric ablation.
func (r Reproducer) Ablations(seed uint64, durationMS int64) []AblationResult {
	return r.RC.AblationBalancerMetrics(seed, durationMS)
}

// PolicyComparison quantifies §2.3: CPU throttling vs hot-task
// throttling vs energy-aware scheduling.
func (r Reproducer) PolicyComparison(seed uint64, measureMS int64) PolicyComparisonResult {
	return r.RC.PolicyComparison(seed, measureMS)
}

// UnitAware runs the §7 functional-unit extension experiment.
func (r Reproducer) UnitAware(seed uint64, measureMS int64) UnitAwareResult {
	return r.RC.UnitAware(seed, measureMS)
}

// DVFSComparison runs the enforcement comparison the paper could not:
// DVFS governors vs §6.2 hlt throttling on the hot-task scenario —
// energy, makespan, peak temperature, and the halted vs downclocked
// fractions.
func (r Reproducer) DVFSComparison(seed uint64) DVFSComparisonResult {
	cfg := experiments.DefaultDVFSComparisonConfig()
	cfg.Seed = seed
	return r.RC.DVFSvsThrottle(cfg)
}
