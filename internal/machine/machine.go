// Package machine is the whole-system simulator: it binds the CPU
// topology, the synthetic workloads, the event counters, the energy
// estimator, the thermal model, the throttling mechanism, and the
// (energy-aware) scheduler into a deterministic simulation of the
// paper's evaluation machine.
//
// Simulated time advances in quanta of one or more milliseconds. Per
// quantum the machine
//
//  1. wakes sleeping tasks whose block time elapsed,
//  2. dispatches tasks on idle CPUs,
//  3. decides throttling from each CPU's thermal power (§6.2),
//  4. executes the running tasks (SMT siblings contend for the core;
//     freshly migrated tasks pay a cache-warmup penalty),
//  5. accounts energy — estimated energy feeds the thermal-power
//     metric and the task profiles; true energy drives the RC thermal
//     model of each package,
//  6. handles timeslice expiry, blocking, and completion,
//  7. runs due balancer and hot-task-migration deadlines.
//
// Two engines drive that step (see Engine). The default async engine
// plans, per step, the largest quantum over which the machine state is
// provably constant (see planner.go), integrates it in one pass, and
// keeps a clock per CPU (see async.go): idle CPUs park entirely and
// their state settles lazily when observed. The lockstep engine fixes
// the quantum at 1 ms — the classic tick loop and the reference the
// async engine is asserted equivalent to. Both produce equivalent
// results for the same seed.
package machine

import (
	"fmt"
	"math"

	"energysched/internal/counters"
	"energysched/internal/dvfs"
	"energysched/internal/energy"
	"energysched/internal/faults"
	"energysched/internal/profile"
	"energysched/internal/rng"
	"energysched/internal/sched"
	"energysched/internal/stats"
	"energysched/internal/thermal"
	"energysched/internal/topology"
	"energysched/internal/trace"
	"energysched/internal/units"
	"energysched/internal/workload"
)

// ThrottleScope selects the granularity of the throttling mechanism.
type ThrottleScope int

const (
	// ThrottlePerLogical throttles each logical CPU against its own
	// share of the core budget, as in the §6.2 temperature-control
	// experiments (Table 3 reports per-logical percentages that differ
	// between SMT siblings).
	ThrottlePerLogical ThrottleScope = iota
	// ThrottlePerPackage throttles all logical CPUs of a package when
	// the package's summed thermal power exceeds the package budget,
	// as in the §6.4 experiments ("we allowed each physical processor
	// to consume 40 W at most").
	ThrottlePerPackage
	// ThrottlePerCore throttles the logical CPUs of one core when the
	// core's summed thermal power exceeds the core budget — the
	// natural granularity for a §7 chip multiprocessor, where each
	// core is a heat source of its own.
	ThrottlePerCore
)

// Engine selects the simulation core that advances the machine.
type Engine int

const (
	// EngineAsync is the default discrete-event engine. Before each step
	// it computes the largest quantum dt ≥ 1 ms over which every
	// decision that reads across CPUs provably holds — bounded by
	// running tasks' block/completion/warm-up horizons, the earliest
	// sleeper wake-up, the next balance/hot-check/monitor deadline that
	// could act, predicted throttle-metric crossings, and MaxQuantumMS
	// (planner.go) — and integrates work, energy, and temperature
	// analytically over the whole quantum, busy CPUs stepping through
	// their own slice expiries and rate crossings inside it
	// (window.go). On top of that planner every CPU keeps its own
	// clock (async.go): idle CPUs are parked — excluded from per-step
	// work entirely — and their metric, throttle, and thermal state
	// settles lazily in closed form whenever another CPU observes them,
	// so a step pays only for the CPUs that are actually busy. Because
	// the workload and thermal substrates are exactly integrable over
	// constant-rate intervals, it reproduces the lockstep engine's
	// results (identical completions, migrations, and throttle
	// decisions; energies and temperatures equal up to floating-point
	// rounding — see TestEngineEquivalence).
	EngineAsync Engine = iota
	// EngineLockstep is the classic 1 ms loop: every millisecond of
	// every logical CPU is simulated individually. It serves as the
	// reference for cross-engine equivalence tests and as a fallback.
	EngineLockstep
	// EngineParallel names the retired parallel engine; New maps it to
	// EngineAsync.
	//
	// Deprecated: kept only because the repository benchmark
	// (bench/traced.go) still names it. It goes when the benchmark
	// drops its parallel2 row; use EngineAsync.
	EngineParallel
)

// ParseEngine parses an engine name — the values accepted by estrace's
// -engine flag.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "lockstep":
		return EngineLockstep, nil
	case "async":
		return EngineAsync, nil
	}
	return 0, fmt.Errorf("unknown engine %q (want lockstep or async)", s)
}

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineLockstep:
		return "lockstep"
	case EngineAsync:
		return "async"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// smtSlowdown is the speed factor of a logical CPU whose sibling is
// executing in the same tick (both threads share one core's functional
// units), giving an SMT speedup of 1.24 for two threads.
const smtSlowdown = 0.62

// coreCoupling is the fraction of a neighbouring core's power that leaks
// into a core's local thermal node on a multi-core package (§7: "having
// multiple cores on the same chip leads to greater thermal stress, since
// the heat is dissipated within a smaller area"). Irrelevant for
// single-core packages.
const coreCoupling = 0.35

// unitR and unitTauS are the §7 functional-unit hotspot nodes' thermal
// resistance (K/W above the core) and time constant (s).
const (
	unitR    = 0.3
	unitTauS = 2
)

// unboundedQuantumMS is the effective cap when MaxQuantumMS is 0 — far
// beyond any Run duration, so quanta are bounded by real horizons
// alone.
const unboundedQuantumMS = int64(1) << 40

// Config describes one simulated machine.
type Config struct {
	// Layout is the CPU topology.
	Layout topology.Layout

	// Engine selects the simulation core; the zero value is the async
	// engine. EngineLockstep restores the per-millisecond loop.
	Engine Engine
	// MaxQuantumMS caps the planned quantum; 0 leaves it uncapped, so
	// quanta end only at event horizons (every throttle horizon is
	// predicted in closed form and re-checked inside windows). Ignored
	// by the lockstep engine.
	MaxQuantumMS int
	// Sched selects the scheduling policy.
	Sched sched.Config
	// Seed drives all randomness.
	Seed uint64

	// PackageProps holds the thermal properties of each physical
	// package; length must equal Layout.NumPackages(). Heterogeneous
	// properties are the point of the paper: "the balancing policy
	// moves hot tasks to the processors with better thermal
	// properties" (§6.2).
	PackageProps []thermal.Properties

	// PackageMaxPowerW is the sustained power budget per package used
	// for the §4.3 ratios and for throttling. If nil and LimitTempC is
	// set, budgets are derived per package from the thermal properties
	// (budget = power whose steady temperature equals the limit). A
	// budget of 0 disables the ratio/throttle machinery for that
	// package.
	PackageMaxPowerW []float64
	// LimitTempC derives per-package budgets from a temperature limit.
	LimitTempC float64

	// ThrottleEnabled engages the hlt throttle; without it the machine
	// only observes thermal power (as in §6.1).
	ThrottleEnabled bool
	// Scope selects per-logical or per-package throttling.
	Scope ThrottleScope
	// TaskThrottling switches to the §2.3 alternative policy of Rohou
	// & Smith [24]: when a throttle engages, only *hot* tasks — those
	// whose energy profile exceeds the CPU's sustainable power — are
	// halted; cool tasks of the same runqueue keep running. The paper
	// argues migration beats this on multiprocessors; the
	// policy-comparison experiment quantifies that.
	TaskThrottling bool

	// Estimator is the kernel-side energy estimator; nil uses the
	// ground-truth weights (perfect estimation).
	Estimator *energy.Estimator

	// UnitThermal enables the §7 multiple-temperature extension:
	// per-functional-unit hotspot nodes on every core, per-task unit
	// profiles, and — when ThrottleEnabled — throttling on unit
	// temperature (a core halts when any of its units exceeds
	// UnitLimitC).
	UnitThermal bool
	// UnitLimitC is the functional-unit temperature limit.
	UnitLimitC float64

	// DVFS enables per-CPU dynamic voltage and frequency scaling: every
	// logical CPU carries a P-state from the configured ladder, a
	// governor policy picks states online, workload progress scales
	// with f/f_max, and dynamic power with f·V² (see internal/dvfs).
	// nil disables frequency scaling — all CPUs run at the nominal
	// frequency, bit-identical to the pre-DVFS machine.
	DVFS *dvfs.Config

	// RespawnFinished restarts a finished task's program as a fresh
	// instance (throughput experiments keep the task count constant).
	RespawnFinished bool

	// MonitorPeriodMS is the sampling interval of the metric series
	// (thermal power, temperature, task CPU). 0 disables sampling.
	MonitorPeriodMS int

	// Trace, when non-nil, records scheduler-level events (dispatches,
	// blocks, migrations, throttle transitions) for offline analysis.
	Trace *trace.Recorder

	// Faults, when non-nil, injects the configured estimator and sensor
	// faults and runs the recalibration/fallback loop (see
	// internal/faults). nil is byte-identical to the fault-free machine.
	Faults *faults.Spec
}

// DefaultPackageProps returns n identical packages with the reference
// thermal properties: R = 0.2 K/W, τ = 15 s, 25 °C ambient. A 60 W
// budget then corresponds to a 37 °C steady temperature.
func DefaultPackageProps(n int) []thermal.Properties {
	props := make([]thermal.Properties, n)
	for i := range props {
		props[i] = thermal.Properties{R: 0.2, C: 75, AmbientC: 25}
	}
	return props
}

// taskState couples the scheduler's and the workload's view of a task.
type taskState struct {
	st   *sched.Task
	work *workload.Task
	prog *workload.Program
	// firstSliceDone is set once the first timeslice has been recorded
	// in the placement table (§4.6).
	firstSliceDone bool
	// wakeAtMS is the tick at which a blocked task becomes runnable.
	wakeAtMS int64
	sleeping bool
}

// dispatch tracks the counter/energy accounting of the task currently
// occupying a CPU.
type dispatch struct {
	task   *taskState
	counts counters.Counts
	ranMS  float64
	// estJ accumulates the frequency-scaled estimated energy of the
	// dispatch; used instead of the end-of-dispatch counter conversion
	// when any quantum of the dispatch ran below the nominal P-state
	// (the counter deltas cannot be rescaled after the fact).
	estJ float64
	// estUnitsJ is estJ's per-functional-unit counterpart, feeding the
	// §7 unit profiles the same voltage-scaled energies the unit
	// thermal nodes actually integrate.
	estUnitsJ units.Energies
	// scaled records whether any quantum of the dispatch executed at a
	// non-nominal P-state. False keeps the integer-counter profile
	// path, so a never-downclocked dispatch — in particular every
	// dispatch under the performance governor — stays bit-identical to
	// a machine without DVFS. P-state residency intervals are engine-
	// identical, so this flag is too.
	scaled bool
}

// MigrationEvent records one task migration for the evaluation traces
// (Fig. 9) and the §6.1 migration counts.
type MigrationEvent struct {
	TimeMS int64
	TaskID int
	From   topology.CPUID
	To     topology.CPUID
	Reason sched.MigrationReason
}

// Machine is the simulated multiprocessor system.
type Machine struct {
	Cfg   Config
	Topo  *topology.Topology
	Model *energy.TrueModel
	Est   *energy.Estimator
	Sched *sched.Scheduler

	nowMS       int64
	statsBaseMS int64
	nextID      int
	rng         *rng.Source

	// Planner state.
	wheel      *sched.Wheel // static deadline grid of the staggered periodic work
	maxQuantum int64        // resolved MaxQuantumMS (unboundedQuantumMS for 0)
	// deadlineFires counts fired deadline-phase visits per class
	// (balance, idle-pull, hot, governor) on the event-driven engines —
	// diagnostics for the deadline scheduler, not simulation state.
	deadlineFires [4]int64
	// qstats is the opt-in quantum attribution (nil: off; see
	// SetQuantumStats). destFloor is the planner's per-plan scratch for
	// the hot checks' destination side, valid only within the quantum
	// that built it and never serialized.
	qstats    *QuantumStats
	destFloor hotDestFloor

	// Per-step iteration sets. Every per-CPU and per-core phase of the
	// shared step — dispatch, throttle decisions, execution-speed
	// resolution, the execution/energy sweep, thermal integration, and
	// counter accounting — walks these instead of ranging 0..n and
	// skipping: for the lockstep engine they are the identity lists
	// (built once), preserving the historical full scan; the async
	// engine maintains stepList as the CPUs in the per-step path
	// (un-parked, plus every parked CPU on a machine with scalar
	// throttles, ascending) and stepCores as the cores of un-parked
	// packages. Both are backed by membership bitmaps (liveCPUBits,
	// liveCoreBits) mutated in O(1) on every parking-state change and
	// materialized into the slices lazily in O(popcount), so wake/park
	// churn on a mostly-idle 1024-CPU machine without scalar throttles
	// never pays an O(nCPU) rebuild. Nothing activates a CPU during the
	// execution sweep (respawns wait in respawnQ), so no list changes
	// mid-iteration.
	allCPUs        []int32
	allCores       []int32
	stepList       []int32
	stepCores      []int32
	liveCPUBits    []uint64
	liveCoreBits   []uint64
	stepListDirty  bool
	stepCoresDirty bool

	// Async-engine state (see async.go; nil/zero on lockstep). async
	// marks the async engine: quanta are planned, CPUs park, the
	// deadline scheduler is attached, and the periodic-deadline phases
	// fire from due lists instead of the per-CPU modulo scan (which the
	// lockstep engine keeps as the reference behavior).
	async        bool
	nParked      int     // count of parked CPUs
	parked       []bool  // per logical CPU: nothing to run, settled lazily
	cpuSettledMS []int64 // per CPU: first tick not yet in its metric
	pkgParked    []bool  // per package: thermal state frozen
	pkgSettledMS []int64 // per package: first unintegrated tick
	idleEffW     float64 // core effective power, whole package idle
	// weightTab caches the thermal sample weight per piece length,
	// shared across CPUs only when thermWShared (uniform package time
	// constants, checked at construction): every busy CPU folds its
	// pieces, the execution sweep its quantum and idle settles their
	// gaps through one math.Pow per length instead of one per tracker
	// (thermWeightFor). Piece lengths alternate between CPUs inside a
	// window, so the table keeps pieceSlots lengths; it holds 256 bytes
	// whatever the width.
	thermWShared bool
	weightTab    pieceTable
	// decayShared/decayTab do the same for the thermal nodes' step
	// retention e^(−dt/RC): when every core node has one time
	// constant, one math.Exp per step length serves every node stepped
	// or settled over it (thermDecayFor).
	decayShared bool
	decayTab    pieceTable
	// Window state (see window.go): every async quantum is a window,
	// which local events (busy CPUs' slice expiries and rate crossings)
	// do not end. local holds the busy CPUs' next local boundaries;
	// winEnd is the last tick of the window being stepped, as far as
	// planned, and winWhy the horizon that set it.
	local  localHeap
	winEnd int64
	winWhy Horizon
	// feedW caches estRatePowerW per busy CPU while feedsCached is
	// set: from the planner's running-task scan (startPiece) to the
	// window's end, the stretch in which the predictions read feeds
	// and only a piece's execution changes one. NaN marks a feed not
	// yet read since its rates last changed (see window.go).
	// verifyFeeds makes every cached read recompute and compare (tests
	// only).
	feedW       []float64
	feedsCached bool
	verifyFeeds bool
	// govPairs memoizes, per CPU, the thermal governor's decision on
	// each side of its down threshold (govSides); nil under any other
	// governor.
	govPairs []govPair
	// sliceOnly marks, per busy CPU, a local boundary that startPiece
	// pushed at a same-task slice expiry with the rates holding strictly
	// past it: popLocal's fast path (sliceHolds).
	sliceOnly []bool
	// respawnQ holds the programs of tasks that finished during the
	// execution sweep and are configured to respawn. Placement reads
	// runqueue power and thermal-power trackers machine-wide, so it
	// cannot run mid-sweep: CPUs behind the cursor already folded this
	// quantum into their trackers, CPUs ahead have not, and that
	// mixture depends on the engine's quantum length — mid-sweep
	// placement chose engine-dependent CPUs. The queue drains right
	// after the sweep, when every tracker is current through the
	// quantum's end tick in every engine.
	respawnQ []*workload.Program
	// parkDirty is set whenever a runqueue may have emptied (a task
	// blocked, finished, or migrated away; a P-state transition
	// released a held-back CPU), i.e. whenever the park sweep could
	// find a new candidate. While it is clear the sweep's candidate
	// loop is skipped — on a saturated machine no queue ever empties.
	parkDirty bool
	// Per-step phase markers driving the settle targets.
	qStartMS    int64 // first tick of the quantum being stepped
	metricsDone bool  // execution phase finished this step
	thermalDone bool  // thermal phase finished this step

	// Precomputed per-step constants.
	idleShareW float64 // true idle power per logical CPU (W)
	estIdleJ   float64 // estimated idle energy per logical CPU per ms (J)
	estIdleW   float64 // estimated idle power per logical CPU (W)

	banks      []counters.Bank     // per logical CPU
	dispatches []dispatch          // per logical CPU
	nodes      []*thermal.Node     // per physical core
	throttles  []*thermal.Throttle // per logical, core, or package (see Scope)
	// throttleMembers[i] holds the logical CPUs whose summed thermal
	// power drives throttles[i]. Precomputed per Scope so the engine's
	// Engage pass and the planner's crossing prediction iterate
	// provably identical groups (and allocate nothing per step).
	throttleMembers [][]topology.CPUID
	pkgBudget       []float64 // per package
	coreBudget      []float64 // per core (pkgBudget split across cores)

	// §7 unit extension state (nil unless Cfg.UnitThermal).
	unitNodes     [][]*thermal.Node   // per core × unit hotspot nodes
	unitThrottles []*thermal.Throttle // per core, on unit temperature
	// unitPowerW is each logical CPU's per-unit true power over its
	// current piece, held like truePower: set from the piece's counts by
	// the execution sweep, from the rates when a window starts a piece,
	// and zero while the CPU idles or is parked. A core's unit nodes
	// integrate the sum over its CPUs (coreUnitW). It never needs to
	// travel in a checkpoint: a parked CPU's zero is a fresh machine's
	// value, and every other CPU's is set before the thermal phase or a
	// window's package settle reads it.
	unitPowerW []units.Energies

	// DVFS state (zero unless Cfg.DVFS is set; see internal/dvfs).
	dvfsOn     bool
	dvfsCfg    dvfs.Config   // resolved configuration
	gov        dvfs.Governor // the policy picking P-states
	govPeriod  int64         // governor evaluation period (ms)
	govLatency int64         // decision-to-effect transition latency (ms)
	freqIdx    []int         // per logical CPU: current P-state index
	speedScale []float64     // per CPU: f/f_max of the current P-state
	powScale   []float64     // per CPU: (V/V_max)² per-event energy factor
	pendingIdx []int         // per CPU: P-state awaiting its latency, -1 none
	pendingAt  []int64       // per CPU: tick the pending state takes effect
	nPending   int           // count of CPUs with a pending transition
	psLabels   []string      // per ladder index: trace label ("1400MHz")

	tasks    map[int]*taskState
	sleepers []*taskState

	prevHalt []bool // per logical CPU: halted last tick (trace edges)

	// scratch buffers reused every step
	tickScratch     workload.TickResult // execution sweep's Tick output
	execSpeed       []float64
	truePower       []float64
	corePower       []float64 // per-core raw power this step (average W)
	throttleScratch []bool
	// Execution staging: computing a CPU's piece (execComputeCPU)
	// records its global-accumulator terms and task transition here,
	// and execCommitCPU folds them in. The two halves are apart only
	// inside a window: a crossing tick executed ahead of time
	// (eagerTick) must not commit before the ticks and CPUs that
	// precede it in (tick, CPU) order, the lockstep commit order.
	p6stat  []uint8   // per CPU: staged task transition (p6* consts)
	p6true  []float64 // per CPU: true energy this quantum (J)
	p6err   []float64 // per CPU: |est − true| energy this quantum (J)
	p6block []float64 // per CPU: block duration when p6Block (ms)
	p6work  []float64 // per CPU: executed work this piece (speed-weighted ms)

	// Metrics.
	Completions       int64
	CompletionsByProg map[string]int64
	// WorkDoneMS accumulates executed work (speed-weighted CPU
	// milliseconds) — a low-variance throughput proxy: in steady state
	// the work rate is proportional to the completion rate.
	WorkDoneMS float64
	// TrueEnergyJ integrates the machine's ground-truth power — every
	// CPU, busy or idle, at its actual P-state — since the last
	// ResetStats: the energy axis of the DVFS-vs-throttling
	// comparison.
	TrueEnergyJ float64
	// PStateSwitches counts completed P-state transitions.
	PStateSwitches int64
	peakTempC      float64 // hottest core temperature observed
	Migrations     []MigrationEvent
	tpSeries       []*stats.Series // thermal power per logical CPU
	tempSeries     []*stats.Series // temperature per package
	idleTicks      []int64         // per logical CPU
	haltedTicks    []int64         // per logical CPU: ticks a runnable CPU was halted
	downTicks      []int64         // per logical CPU: occupied ticks below nominal freq

	// Fault-injection state (nil/zero unless Cfg.Faults is set).
	faults        *faults.Injector
	recalPeriod   int64           // residual window length (0 = loop off)
	recalFilterW  float64         // exponential weight matching the window
	recalPrev     counters.Counts // machine-wide counter sum at last window
	recalIdlePrev int64           // Σ idle+halted ticks at last window
	origLimitW    []float64       // throttle limits before any fallback scaling
	fallbackOn    bool
	// EstimationErrJ integrates |estimated − true| energy over the busy
	// execution path: the cumulative damage of a wrong model, even when
	// no fault is configured (then it is 0 unless Cfg.Estimator was
	// already mis-calibrated).
	EstimationErrJ float64
	// ResidualW is the latest thermal-diode residual (sensed minus
	// modeled machine power) observed by the recalibration loop.
	ResidualW float64
	// RecalibrationCount counts online weight adaptations.
	RecalibrationCount int64
	// FallbackTicks counts CPU-independent machine ticks spent under
	// the conservative fallback throttle limits.
	FallbackTicks int64
}

// New builds a machine. The workload is added afterwards with Spawn.
func New(cfg Config) (*Machine, error) {
	topo, err := topology.New(cfg.Layout)
	if err != nil {
		return nil, err
	}
	nPkg := cfg.Layout.NumPackages()
	nCPU := cfg.Layout.NumLogical()
	if len(cfg.PackageProps) == 0 {
		cfg.PackageProps = DefaultPackageProps(nPkg)
	}
	if len(cfg.PackageProps) != nPkg {
		return nil, fmt.Errorf("machine: %d package properties for %d packages", len(cfg.PackageProps), nPkg)
	}
	for i, p := range cfg.PackageProps {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("machine: package %d: %w", i, err)
		}
	}

	// The deadline scheduler tabulates every periodic class per
	// millisecond of its period; a period ≤ 0 disables the class.
	if cfg.Sched.BalancePeriodMS > sched.MaxPeriodMS || cfg.Sched.HotCheckPeriodMS > sched.MaxPeriodMS {
		return nil, fmt.Errorf("machine: balance period %v ms or hot-check period %v ms above %d ms",
			cfg.Sched.BalancePeriodMS, cfg.Sched.HotCheckPeriodMS, sched.MaxPeriodMS)
	}

	model := energy.DefaultTrueModel()
	est := cfg.Estimator
	if est == nil {
		est = energy.PerfectEstimator(model)
	}
	var inj *faults.Injector
	if cfg.Faults != nil {
		inj, err = faults.NewInjector(*cfg.Faults, cfg.Seed, nPkg)
		if err != nil {
			return nil, fmt.Errorf("machine: %w", err)
		}
		// Fault injection mutates weights (mis-calibration now, drift and
		// recalibration later), so the machine works on a private copy —
		// the caller's estimator is never touched, and the halt power is
		// never perturbed (the async engine's closed-form idle settles
		// depend on it staying constant).
		e := *est
		inj.Miscalibrate(&e.Weights)
		est = &e
	}

	// Package power budgets.
	budget := make([]float64, nPkg)
	switch {
	case len(cfg.PackageMaxPowerW) == nPkg:
		copy(budget, cfg.PackageMaxPowerW)
	case len(cfg.PackageMaxPowerW) == 1:
		for i := range budget {
			budget[i] = cfg.PackageMaxPowerW[0]
		}
	case len(cfg.PackageMaxPowerW) == 0 && cfg.LimitTempC > 0:
		for i := range budget {
			budget[i] = cfg.PackageProps[i].PowerForTemp(cfg.LimitTempC)
		}
	case len(cfg.PackageMaxPowerW) == 0:
		// no budgets: ratios disabled
	default:
		return nil, fmt.Errorf("machine: %d budgets for %d packages", len(cfg.PackageMaxPowerW), nPkg)
	}

	switch cfg.Engine {
	case EngineLockstep, EngineAsync:
	case EngineParallel:
		cfg.Engine = EngineAsync
	default:
		return nil, fmt.Errorf("machine: unknown engine %d", int(cfg.Engine))
	}
	if cfg.MaxQuantumMS < 0 {
		return nil, fmt.Errorf("machine: MaxQuantumMS %d out of range", cfg.MaxQuantumMS)
	}

	nCore := cfg.Layout.NumCores()
	cores := cfg.Layout.Cores()
	m := &Machine{
		Cfg:               cfg,
		Topo:              topo,
		Model:             model,
		Est:               est,
		Sched:             sched.New(topo, cfg.Sched),
		rng:               rng.New(cfg.Seed),
		banks:             make([]counters.Bank, nCPU),
		dispatches:        make([]dispatch, nCPU),
		nodes:             make([]*thermal.Node, nCore),
		pkgBudget:         budget,
		coreBudget:        make([]float64, nCore),
		tasks:             make(map[int]*taskState),
		execSpeed:         make([]float64, nCPU),
		truePower:         make([]float64, nCPU),
		corePower:         make([]float64, nCore),
		p6stat:            make([]uint8, nCPU),
		p6true:            make([]float64, nCPU),
		p6err:             make([]float64, nCPU),
		p6block:           make([]float64, nCPU),
		p6work:            make([]float64, nCPU),
		CompletionsByProg: make(map[string]int64),
		idleTicks:         make([]int64, nCPU),
		haltedTicks:       make([]int64, nCPU),
		prevHalt:          make([]bool, nCPU),
		maxQuantum:        unboundedQuantumMS,
		async:             cfg.Engine != EngineLockstep,
	}
	m.allCPUs = make([]int32, nCPU)
	for c := range m.allCPUs {
		m.allCPUs[c] = int32(c)
	}
	m.allCores = make([]int32, nCore)
	for c := range m.allCores {
		m.allCores[c] = int32(c)
	}
	if cfg.MaxQuantumMS > 0 {
		m.maxQuantum = int64(cfg.MaxQuantumMS)
	}

	// DVFS: resolve the ladder/governor configuration and start every
	// CPU at the nominal P-state, so a "performance"-governed machine
	// is bit-identical to one without DVFS.
	if cfg.DVFS != nil {
		resolved, err := cfg.DVFS.Resolved()
		if err != nil {
			return nil, fmt.Errorf("machine: %w", err)
		}
		if resolved.EvalPeriodMS > sched.MaxPeriodMS {
			return nil, fmt.Errorf("machine: DVFS evaluation period %d ms above %d ms", resolved.EvalPeriodMS, sched.MaxPeriodMS)
		}
		gov, err := dvfs.NewGovernor(resolved)
		if err != nil {
			return nil, fmt.Errorf("machine: %w", err)
		}
		m.dvfsOn = true
		m.dvfsCfg = resolved
		m.gov = gov
		m.govPeriod = int64(resolved.EvalPeriodMS)
		m.govLatency = int64(resolved.TransitionLatencyMS)
		if _, static := gov.(dvfs.Performance); static {
			// The performance governor provably never leaves the
			// nominal state: installing its evaluation deadlines would
			// only cap the planner's quanta and burn no-op
			// evaluations. Skipping them makes a performance-governed
			// machine genuinely cost- and behaviour-identical to one
			// without DVFS.
			m.govPeriod = 0
		}
		m.freqIdx = make([]int, nCPU)
		m.speedScale = make([]float64, nCPU)
		m.powScale = make([]float64, nCPU)
		m.pendingIdx = make([]int, nCPU)
		m.pendingAt = make([]int64, nCPU)
		m.downTicks = make([]int64, nCPU)
		nominal := resolved.Ladder.Max()
		for c := 0; c < nCPU; c++ {
			m.freqIdx[c] = nominal
			m.speedScale[c] = 1
			m.powScale[c] = 1
			m.pendingIdx[c] = -1
		}
		m.psLabels = make([]string, len(resolved.Ladder))
		for i := range resolved.Ladder {
			m.psLabels[i] = resolved.Ladder.Label(i)
		}
	}

	m.wheel = sched.NewWheel(cfg.Sched, m.govPeriod, nCPU)

	// Per-core thermal nodes. A core owns 1/cores of the package heat
	// sink (R scaled up, C scaled down, time constant preserved) and,
	// through coreCoupling, feels a fraction of its chip neighbours'
	// power. For single-core packages this is exactly the paper's
	// per-package model.
	threads := cfg.Layout.ThreadsPerPackage
	logicalPerPkg := cores * threads
	idleShare := model.HaltPower / float64(logicalPerPkg)
	coupling := 1 + coreCoupling*float64(cores-1)
	m.idleShareW = idleShare
	m.estIdleJ = est.HaltPower / float64(logicalPerPkg) / 1000 // per ms
	m.estIdleW = est.HaltPower / float64(logicalPerPkg)
	for c := 0; c < nCore; c++ {
		pkg := c / cores
		props := cfg.PackageProps[pkg]
		props.R *= float64(cores)
		props.C /= float64(cores)
		m.nodes[c] = thermal.NewNode(props)
		// The sustainable per-core power with every chip core equally
		// busy: the core temperature under uniform load P is
		// T = T_amb + R_core·P·(1 + k(cores−1)), so holding the
		// package-budget temperature requires
		// budget_core = pkgBudget / (cores · coupling). Single-core
		// packages get exactly the package budget.
		m.coreBudget[c] = budget[pkg] / float64(cores) / coupling
	}

	m.decayShared = true
	for _, n := range m.nodes {
		if n.Props.TimeConstant() != m.nodes[0].Props.TimeConstant() {
			m.decayShared = false
		}
	}
	m.thermWShared = true
	w0 := thermal.ThermalPowerWeight(cfg.PackageProps[0], 1)
	for c := 0; c < nCPU; c++ {
		core, pkg := topo.CoreOf[c], topo.PkgOf[c]
		w := thermal.ThermalPowerWeight(cfg.PackageProps[pkg], 1)
		if w != w0 {
			// Heterogeneous time constants (distinct R·C per package):
			// each tracker computes its own sample weights.
			m.thermWShared = false
		}
		maxLogical := m.coreBudget[core] / float64(threads)
		m.Sched.Power[c] = profile.NewCPUPower(maxLogical, w, 1, idleShare)
	}

	// Throttles, with their member CPU groups.
	if cfg.ThrottleEnabled {
		switch cfg.Scope {
		case ThrottlePerLogical:
			m.throttles = make([]*thermal.Throttle, nCPU)
			m.throttleMembers = make([][]topology.CPUID, nCPU)
			for c := 0; c < nCPU; c++ {
				core := cfg.Layout.Core(topology.CPUID(c))
				m.throttles[c] = &thermal.Throttle{LimitW: m.coreBudget[core] / float64(threads)}
				m.throttleMembers[c] = []topology.CPUID{topology.CPUID(c)}
			}
		case ThrottlePerCore:
			m.throttles = make([]*thermal.Throttle, nCore)
			m.throttleMembers = make([][]topology.CPUID, nCore)
			for c := 0; c < nCore; c++ {
				m.throttles[c] = &thermal.Throttle{LimitW: m.coreBudget[c]}
				members := make([]topology.CPUID, threads)
				for t := 0; t < threads; t++ {
					members[t] = cfg.Layout.CPUOfCore(c, t)
				}
				m.throttleMembers[c] = members
			}
		case ThrottlePerPackage:
			m.throttles = make([]*thermal.Throttle, nPkg)
			m.throttleMembers = make([][]topology.CPUID, nPkg)
			for p := 0; p < nPkg; p++ {
				m.throttles[p] = &thermal.Throttle{LimitW: budget[p]}
				m.throttleMembers[p] = cfg.Layout.PackageCPUs(p)
			}
		default:
			return nil, fmt.Errorf("machine: unknown throttle scope %d", cfg.Scope)
		}
	}

	// Metric series.
	if cfg.MonitorPeriodMS > 0 {
		step := float64(cfg.MonitorPeriodMS) / 1000
		m.tpSeries = make([]*stats.Series, nCPU)
		for c := 0; c < nCPU; c++ {
			m.tpSeries[c] = stats.NewSeries(fmt.Sprintf("cpu%d.thermal_power", c), step)
		}
		m.tempSeries = make([]*stats.Series, nCore)
		for c := 0; c < nCore; c++ {
			m.tempSeries[c] = stats.NewSeries(fmt.Sprintf("core%d.temp", c), step)
		}
	}

	// §7 unit extension: hotspot nodes riding on each core's
	// temperature, plus per-core unit-temperature throttles.
	if cfg.UnitThermal {
		m.unitNodes = make([][]*thermal.Node, nCore)
		m.unitPowerW = make([]units.Energies, nCPU)
		uprops := thermal.Properties{R: unitR, C: unitTauS / unitR}
		for c := 0; c < nCore; c++ {
			m.unitNodes[c] = make([]*thermal.Node, units.NumUnits)
			for u := range m.unitNodes[c] {
				n := thermal.NewNode(uprops)
				n.TempC = m.nodes[c].TempC
				m.unitNodes[c][u] = n
			}
		}
		if cfg.ThrottleEnabled && cfg.UnitLimitC > 0 {
			m.unitThrottles = make([]*thermal.Throttle, nCore)
			for c := 0; c < nCore; c++ {
				m.unitThrottles[c] = &thermal.Throttle{LimitW: cfg.UnitLimitC}
			}
		}
	}

	for _, n := range m.nodes {
		if n.TempC > m.peakTempC {
			m.peakTempC = n.TempC
		}
	}

	// Scheduler hooks: finalize energy accounting when the balancer or
	// hot-task migration moves a *running* task, and trace migrations.
	m.Sched.Hooks.BeforeMigrate = func(t *sched.Task, from, to topology.CPUID) {
		if m.Sched.RQ(from).Current == t {
			m.finalizeDispatch(from)
		}
	}
	m.Sched.Hooks.AfterMigrate = func(t *sched.Task, from, to topology.CPUID, reason sched.MigrationReason) {
		if m.async {
			m.activateCPU(to)
			// A hot migration moves the running task: the source queue
			// may now be empty and parkable.
			m.parkDirty = true
		}
		m.Migrations = append(m.Migrations, MigrationEvent{
			TimeMS: m.nowMS, TaskID: t.ID, From: from, To: to, Reason: reason,
		})
		m.emit(trace.Event{TimeMS: m.nowMS, Kind: trace.Migrate, TaskID: t.ID,
			CPU: int(to), From: int(from), Detail: reason.String()})
	}
	// Fault-injection state (after the throttles: the fallback scales
	// their limits and must know the originals).
	if inj != nil {
		m.faults = inj
		m.recalPeriod = inj.Spec().RecalPeriodMS
		if m.recalPeriod > 0 {
			// The diode reading lags real power by the package RC; the
			// model side of the residual is filtered with the matching
			// exponential so the comparison is lag-for-lag.
			m.recalFilterW = thermal.ThermalPowerWeight(cfg.PackageProps[0], float64(m.recalPeriod))
		}
		m.origLimitW = make([]float64, len(m.throttles))
		for i, th := range m.throttles {
			m.origLimitW[i] = th.LimitW
		}
	}

	// Async parking state depends on the throttle groups built above.
	if m.async {
		m.initAsync()
		m.local.keys = make([]int64, 0, nCPU)
		m.feedW = make([]float64, nCPU)
		m.sliceOnly = make([]bool, nCPU)
		if m.govThermal() {
			m.govPairs = make([]govPair, nCPU)
			for c := range m.govPairs {
				m.govPairs[c].instW = math.NaN()
			}
		}
	}
	return m, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// NowMS returns the simulated time in milliseconds.
func (m *Machine) NowMS() int64 { return m.nowMS }

// Spawn starts a new instance of a program, places it (§4.6), and
// returns its scheduler task.
func (m *Machine) Spawn(prog *workload.Program) *sched.Task {
	id := m.nextID
	m.nextID++
	st := &sched.Task{ID: id, Binary: prog.Binary}
	if m.Cfg.UnitThermal {
		st.Units = units.NewProfile()
	}
	ts := &taskState{
		st:   st,
		work: workload.NewTask(id, prog, m.rng.Split()),
		prog: prog,
	}
	m.tasks[id] = ts
	// Placement reads runqueue ratios and thermal powers across the
	// machine; under the async engine the ThermalRead hook settles any
	// parked CPU it touches on demand.
	cpu := m.Sched.PlaceNewTask(st)
	if m.async {
		m.activateCPU(cpu)
	}
	m.emit(trace.Event{TimeMS: m.nowMS, Kind: trace.Spawn, TaskID: id, CPU: int(cpu), From: -1, Detail: prog.Name})
	return st
}

// emit records a trace event when tracing is enabled.
func (m *Machine) emit(ev trace.Event) {
	if m.Cfg.Trace != nil {
		m.Cfg.Trace.Add(ev)
	}
}

// SpawnN starts n instances of a program.
func (m *Machine) SpawnN(prog *workload.Program, n int) {
	for i := 0; i < n; i++ {
		m.Spawn(prog)
	}
}

// TaskCPU returns the CPU a live task currently belongs to, or -1.
func (m *Machine) TaskCPU(id int) topology.CPUID {
	if ts, ok := m.tasks[id]; ok {
		return ts.st.CPU
	}
	return -1
}

// TaskWorkDone returns the executed milliseconds (at full speed) a live
// task has accumulated, or -1 if the task finished or never existed.
// Differences across a measurement window give per-task progress rates,
// the fairness metric of the policy-comparison experiment.
func (m *Machine) TaskWorkDone(id int) float64 {
	if ts, ok := m.tasks[id]; ok {
		return ts.work.DoneWork()
	}
	return -1
}
