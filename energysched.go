// Package energysched is a full reproduction of "Balancing Power
// Consumption in Multiprocessor Systems" (Andreas Merkel and Frank
// Bellosa, EuroSys 2006) as a simulation library.
//
// The paper characterizes tasks by their power consumption — estimated
// online from event monitoring counters — and schedules them across the
// CPUs of an SMP/SMT/NUMA machine so that no individual processor
// overheats: energy balancing combines hot and cool tasks on each
// runqueue, hot task migration moves a lone hot task to a cooler
// processor just before throttling would engage, and energy-aware
// initial placement seeds new tasks onto the CPU whose power ratio fits
// best.
//
// This package is the public facade. It wires together the internal
// substrates — synthetic workloads with per-phase event rates, counter
// banks, the calibrated energy estimator (E = Σ aᵢ·cᵢ), the RC thermal
// model with hlt throttling, and the Linux-2.6-style scheduler carrying
// the paper's policy — into a deterministic tick-driven simulated
// machine.
//
// Quick start:
//
//	sys, _ := energysched.New(energysched.Options{})
//	task := sys.Spawn(sys.Programs().Bitcnts())
//	sys.Run(60 * time.Second)
//	fmt.Println(task.Profile.Watts()) // ≈ 61 W
//
// The reproduction experiments (every table and figure of the paper's
// evaluation) live behind the Reproducer methods and the espower CLI.
package energysched

import (
	"time"

	"energysched/internal/dvfs"
	"energysched/internal/energy"
	"energysched/internal/experiments"
	"energysched/internal/faults"
	"energysched/internal/machine"
	"energysched/internal/sched"
	"energysched/internal/stats"
	"energysched/internal/thermal"
	"energysched/internal/topology"
	"energysched/internal/trace"
	"energysched/internal/workload"
)

// Re-exported core types. The aliases make the internal packages' types
// part of the public API without duplicating them.
type (
	// Layout describes the machine shape (NUMA nodes × packages × SMT
	// threads).
	Layout = topology.Layout
	// CPUID identifies a logical CPU.
	CPUID = topology.CPUID
	// ThermalProperties are a package's heat-sink characteristics.
	ThermalProperties = thermal.Properties
	// Program is a synthetic workload description.
	Program = workload.Program
	// Task is the scheduler's handle for a running task (exposes the
	// energy profile and migration counts).
	Task = sched.Task
	// Series is a sampled metric time series.
	Series = stats.Series
	// SchedConfig is the full scheduling-policy configuration for
	// callers that want to tune the paper's knobs directly.
	SchedConfig = sched.Config
	// MigrationEvent records one task migration.
	MigrationEvent = machine.MigrationEvent
	// TraceRecorder accumulates scheduler-level events (spawns,
	// dispatches, blocks, migrations, throttle transitions) for
	// offline analysis; see NewTraceRecorder.
	TraceRecorder = trace.Recorder
	// TraceEvent is one recorded scheduler event.
	TraceEvent = trace.Event
	// DVFSConfig configures per-CPU frequency scaling (P-state ladder,
	// governor, evaluation period, transition latency); see
	// Options.DVFS.
	DVFSConfig = dvfs.Config
	// PState is one frequency/voltage operating point of a DVFS
	// ladder.
	PState = dvfs.PState
	// FaultSpec is a JSON-serializable fault-injection schedule:
	// estimator mis-calibration and drift, thermal-diode sensor faults,
	// and the online recalibration/fallback loop; see Options.Faults
	// and internal/faults.
	FaultSpec = faults.Spec
)

// Policy selects a scheduling policy preset.
type Policy int

const (
	// PolicyEnergyAware enables all three mechanisms of the paper:
	// energy balancing (§4.4), hot task migration (§4.5), and
	// energy-aware initial placement (§4.6).
	PolicyEnergyAware Policy = iota
	// PolicyBaseline is vanilla Linux-style scheduling: hierarchical
	// load balancing only.
	PolicyBaseline
)

// ThrottleScope re-exports the throttling granularity.
type ThrottleScope = machine.ThrottleScope

// Throttling granularities (see machine.ThrottleScope).
const (
	ThrottlePerLogical = machine.ThrottlePerLogical
	ThrottlePerPackage = machine.ThrottlePerPackage
	ThrottlePerCore    = machine.ThrottlePerCore
)

// Engine re-exports the simulation-core selector.
type Engine = machine.Engine

// Simulation engines (see machine.Engine). EngineAsync — the default —
// advances the machine in event-horizon quanta, integrating work,
// energy, and temperature analytically between events, with a clock
// per CPU so idle CPUs sleep past busy ones and settle their state
// lazily; EngineParallel shards the async step along NUMA-node
// boundaries (one shard per node) onto a goroutine pool; EngineLockstep
// is the classic 1 ms loop and the reference. All three produce
// equivalent results for the same seed, and EngineParallel is
// bit-identical to EngineAsync.
const (
	EngineAsync    = machine.EngineAsync
	EngineLockstep = machine.EngineLockstep
	EngineParallel = machine.EngineParallel
)

// XSeries445 returns the paper's evaluation machine layout (2 NUMA
// nodes × 4 packages × 2 SMT threads); XSeries445NoSMT the same with
// hyper-threading disabled.
func XSeries445() Layout      { return topology.XSeries445() }
func XSeries445NoSMT() Layout { return topology.XSeries445NoSMT() }

// Options configure a simulated system. The zero value gives the
// paper's 8-way SMT-off machine with uniform cooling, a 60 W package
// budget, energy-aware scheduling, perfect energy estimation, and no
// throttling.
type Options struct {
	// Layout is the machine shape; zero means XSeries445NoSMT.
	Layout Layout
	// Engine selects the simulation core; the zero value is the async
	// engine. EngineParallel additionally shards its step across
	// goroutines, one shard per NUMA node; EngineLockstep restores the
	// 1 ms loop.
	Engine Engine
	// Policy selects the scheduling preset. Sched overrides it when
	// non-nil.
	Policy Policy
	// Sched, when non-nil, gives full control over the policy knobs.
	Sched *SchedConfig
	// Seed drives all randomness (workload phases, calibration noise).
	Seed uint64
	// PackageProps are per-package thermal properties; empty means
	// uniform R = 0.2 K/W, τ = 15 s, 25 °C ambient.
	PackageProps []ThermalProperties
	// PackageMaxPowerW is the per-package power budget (one value is
	// broadcast). Zero-length with LimitTempC unset means a 60 W
	// budget everywhere.
	PackageMaxPowerW []float64
	// LimitTempC derives the budgets from a temperature limit instead.
	LimitTempC float64
	// Throttle engages hlt duty-cycle throttling at the budget.
	Throttle bool
	// Scope selects per-logical or per-package throttling.
	Scope ThrottleScope
	// DVFS enables per-CPU frequency scaling: a governor ("ondemand",
	// "thermal", "performance") picks P-states from a ladder, workload
	// progress scales with f/f_max and dynamic power with f·V². The
	// thermal governor enforces the power budget by downclocking
	// instead of (or ahead of) hlt throttling. nil disables DVFS.
	DVFS *DVFSConfig
	// CalibratedEstimation runs the §3.2 multimeter calibration and
	// uses the recovered (slightly imperfect) weights; false uses the
	// ground-truth weights.
	CalibratedEstimation bool
	// UnitThermal enables the §7 multiple-temperature extension:
	// per-functional-unit hotspot tracking and unit-temperature
	// throttling at UnitLimitC (when Throttle is set).
	UnitThermal bool
	// UnitLimitC is the functional-unit temperature limit.
	UnitLimitC float64

	// MonitorPeriod is the metric sampling interval; zero disables
	// series collection.
	MonitorPeriod time.Duration
	// RespawnFinished restarts finished programs to hold load constant.
	RespawnFinished bool
	// Trace, when non-nil, records scheduler-level events of the run;
	// export them with TraceRecorder.WriteCSV / WriteJSONL.
	Trace *TraceRecorder

	// Faults, when non-nil, injects estimator and thermal-sensor faults
	// and runs the online recalibration/fallback loop; see FaultSpec.
	Faults *FaultSpec
}

// System is a simulated multiprocessor machine running the energy-aware
// scheduler.
type System struct {
	m       *machine.Machine
	catalog *workload.Catalog
}

// New builds a system from options.
func New(opt Options) (*System, error) {
	layout := opt.Layout
	if layout == (Layout{}) {
		layout = XSeries445NoSMT()
	}
	pol := sched.DefaultConfig()
	if opt.Policy == PolicyBaseline {
		pol = sched.BaselineConfig()
	}
	if opt.Sched != nil {
		pol = *opt.Sched
	}
	budgets := opt.PackageMaxPowerW
	if len(budgets) == 0 && opt.LimitTempC == 0 {
		budgets = []float64{60}
	}
	var est *energy.Estimator
	if opt.CalibratedEstimation {
		var err error
		if est, err = experiments.CalibratedEstimator(opt.Seed); err != nil {
			return nil, err
		}
	}
	m, err := machine.New(machine.Config{
		Layout:           layout,
		Engine:           opt.Engine,
		Sched:            pol,
		Seed:             opt.Seed,
		PackageProps:     opt.PackageProps,
		PackageMaxPowerW: budgets,
		LimitTempC:       opt.LimitTempC,
		ThrottleEnabled:  opt.Throttle,
		Scope:            opt.Scope,
		DVFS:             opt.DVFS,
		UnitThermal:      opt.UnitThermal,
		UnitLimitC:       opt.UnitLimitC,
		Estimator:        est,
		MonitorPeriodMS:  int(opt.MonitorPeriod / time.Millisecond),
		RespawnFinished:  opt.RespawnFinished,
		Trace:            opt.Trace,
		Faults:           opt.Faults,
	})
	if err != nil {
		return nil, err
	}
	return &System{m: m, catalog: workload.NewCatalog(energy.DefaultTrueModel())}, nil
}

// Programs returns the catalog of the paper's test programs (Table 2
// plus the interactive Table 1 programs), built against the system's
// power model.
func (s *System) Programs() *workload.Catalog { return s.catalog }

// FiniteWork returns a copy of a program that finishes after the given
// CPU time, for throughput experiments.
func FiniteWork(p *Program, cpuTime time.Duration) *Program {
	return workload.WithWork(p, float64(cpuTime/time.Millisecond))
}

// Spawn starts one instance of a program and returns its task handle.
func (s *System) Spawn(p *Program) *Task { return s.m.Spawn(p) }

// SpawnN starts n instances of a program.
func (s *System) SpawnN(p *Program, n int) { s.m.SpawnN(p, n) }

// Run advances the simulation.
func (s *System) Run(d time.Duration) { s.m.Run(int64(d / time.Millisecond)) }

// Now returns the simulated time.
func (s *System) Now() time.Duration { return time.Duration(s.m.NowMS()) * time.Millisecond }

// ThermalPower returns a CPU's current thermal-power metric (W).
func (s *System) ThermalPower(cpu CPUID) float64 { return s.m.Sched.Power[int(cpu)].ThermalPower() }

// PackageTemp returns a package's junction temperature (°C).
func (s *System) PackageTemp(pkg int) float64 { return s.m.PackageTemp(pkg) }

// ThermalPowerSeries returns the sampled thermal-power series of a CPU
// (nil unless MonitorPeriod was set).
func (s *System) ThermalPowerSeries(cpu CPUID) *Series { return s.m.ThermalPowerSeries(cpu) }

// ThrottledFrac returns the fraction of time a CPU has been throttled.
func (s *System) ThrottledFrac(cpu CPUID) float64 { return s.m.ThrottledFrac(cpu) }

// AvgThrottledFrac returns the machine-wide average throttled fraction.
func (s *System) AvgThrottledFrac() float64 { return s.m.AvgThrottledFrac() }

// DownclockedFrac returns the fraction of wall time a CPU was both
// occupied and running below the nominal frequency — same denominator
// as ThrottledFrac, not conditioned on occupancy (0 without DVFS).
func (s *System) DownclockedFrac(cpu CPUID) float64 { return s.m.DownclockedFrac(cpu) }

// AvgDownclockedFrac returns the machine-wide average downclocked
// fraction.
func (s *System) AvgDownclockedFrac() float64 { return s.m.AvgDownclockedFrac() }

// FreqMHz returns a CPU's current clock (the nominal clock without
// DVFS).
func (s *System) FreqMHz(cpu CPUID) float64 { return s.m.FreqMHz(cpu) }

// PStateSwitches returns the number of completed P-state transitions.
func (s *System) PStateSwitches() int64 { return s.m.PStateSwitches }

// TrueEnergy returns the machine's ground-truth energy consumption
// since the last ResetStats, in Joules.
func (s *System) TrueEnergy() float64 { return s.m.TrueEnergyJ }

// PeakTemp returns the hottest core temperature observed since the
// last ResetStats (°C).
func (s *System) PeakTemp() float64 { return s.m.PeakTempC() }

// Completions returns the number of finished task instances.
func (s *System) Completions() int64 { return s.m.Completions }

// Throughput returns completions per simulated second since the last
// ResetStats.
func (s *System) Throughput() float64 { return s.m.Throughput() }

// WorkRate returns the speed-weighted fraction of CPU capacity in use
// ("full CPUs" of useful work).
func (s *System) WorkRate() float64 { return s.m.WorkRate() }

// MigrationCount returns the number of task migrations so far.
func (s *System) MigrationCount() int64 { return s.m.MigrationCount() }

// Migrations returns the recorded migration events.
func (s *System) Migrations() []MigrationEvent { return s.m.Migrations }

// TaskCPU returns the CPU a task currently belongs to (-1 if finished).
func (s *System) TaskCPU(t *Task) CPUID { return s.m.TaskCPU(t.ID) }

// ResetStats clears the throughput/migration/throttle accounting,
// typically after a thermal warm-up.
func (s *System) ResetStats() { s.m.ResetStats() }

// CMP2x2 returns a §7-style chip-multiprocessor layout: one node, two
// dual-core packages, SMT off.
func CMP2x2() Layout { return topology.CMP2x2() }

// CoreTemp returns the junction temperature of a core's local thermal
// node (on single-core packages, the package temperature).
func (s *System) CoreTemp(core int) float64 { return s.m.CoreTemp(core) }

// MaxUnitTemp returns the hottest functional-unit temperature on the
// machine (§7 extension; the hottest core temperature when unit
// tracking is off).
func (s *System) MaxUnitTemp() float64 { return s.m.MaxUnitTemp() }

// DefaultSchedConfig returns the paper's energy-aware policy with its
// default tuning, for callers that want to flip individual knobs.
func DefaultSchedConfig() SchedConfig { return sched.DefaultConfig() }

// BaselineSchedConfig returns the vanilla load-balancing-only policy.
func BaselineSchedConfig() SchedConfig { return sched.BaselineConfig() }

// NewTraceRecorder creates an event recorder retaining at most limit
// events (0 = unbounded), for Options.Trace.
func NewTraceRecorder(limit int) *TraceRecorder { return trace.New(limit) }

// TraceKind classifies a recorded scheduler event.
type TraceKind = trace.Kind

// Trace event kinds (see the trace package for semantics).
const (
	TraceDispatch    = trace.Dispatch
	TraceSliceEnd    = trace.SliceEnd
	TraceBlock       = trace.Block
	TraceWake        = trace.Wake
	TraceMigrate     = trace.Migrate
	TraceThrottleOn  = trace.ThrottleOn
	TraceThrottleOff = trace.ThrottleOff
	TraceFinish      = trace.Finish
	TraceSpawn       = trace.Spawn
	TracePState      = trace.PState
	TraceDrift       = trace.Drift
	TraceRecal       = trace.Recal
	TraceFallbackOn  = trace.FallbackOn
	TraceFallbackOff = trace.FallbackOff
)

// FaultMetrics are the observables of the fault-injection loop.
type FaultMetrics struct {
	// EstimationErrJ is the integrated |estimated − true| energy over
	// the busy execution path since the last ResetStats.
	EstimationErrJ float64
	// ResidualW is the latest thermal-diode residual (sensed minus
	// modeled machine power).
	ResidualW float64
	// RecalibrationCount counts online weight adaptations.
	RecalibrationCount int64
	// FallbackTicks counts simulated milliseconds spent under the
	// conservative fallback throttle limits.
	FallbackTicks int64
}

// FaultMetrics returns the fault-injection observables (all zero when
// Options.Faults was nil).
func (s *System) FaultMetrics() FaultMetrics {
	return FaultMetrics{
		EstimationErrJ:     s.m.EstimationErrJ,
		ResidualW:          s.m.ResidualW,
		RecalibrationCount: s.m.RecalibrationCount,
		FallbackTicks:      s.m.FallbackTicks,
	}
}
