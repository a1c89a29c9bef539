package machine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"energysched/internal/dvfs"
	"energysched/internal/faults"
	"energysched/internal/sched"
	"energysched/internal/topology"
	"energysched/internal/trace"
	"energysched/internal/workload"
)

// Cross-engine equivalence: the async engine must reproduce the
// lockstep engine's results for the same seed — identical discrete
// outcomes (completions, migrations with their timestamps,
// throttle engagement time) and float outcomes (temperatures, thermal
// powers, energy-derived profiles) within 1e-6 relative tolerance.

// engineScenario describes one equivalence scenario.
type engineScenario struct {
	name string
	// build constructs the machine on engine e.
	build func(e Engine) *Machine
	runMS int64
}

func engineScenarios() []engineScenario {
	cat := catalog()
	return []engineScenario{
		{
			// Mostly-blocked interactive tasks: long idle stretches
			// between wake-ups, the quantum planner's best case.
			name: "idle-heavy",
			build: func(e Engine) *Machine {
				m := MustNew(Config{
					Engine: e, Layout: topology.XSeries445NoSMT(),
					Sched: sched.DefaultConfig(), Seed: 11,
					PackageMaxPowerW: []float64{60}, MonitorPeriodMS: 500,
				})
				m.SpawnN(cat.Sshd(), 3)
				m.SpawnN(cat.Httpd(), 3)
				m.Spawn(cat.Bash())
				return m
			},
			runMS: 60_000,
		},
		{
			// Saturated CPU-bound mix with energy balancing active.
			name: "steady-state",
			build: func(e Engine) *Machine {
				m := MustNew(Config{
					Engine: e, Layout: topology.XSeries445NoSMT(),
					Sched: sched.DefaultConfig(), Seed: 3,
					PackageMaxPowerW: []float64{60}, MonitorPeriodMS: 1000,
				})
				for _, p := range cat.Table2Set() {
					m.SpawnN(p, 2)
				}
				return m
			},
			runMS: 45_000,
		},
		{
			// Throttling engaged and oscillating, finite tasks churning
			// through respawn, per-logical scope.
			name: "throttled-churn",
			build: func(e Engine) *Machine {
				m := MustNew(Config{
					Engine: e, Layout: topology.XSeries445NoSMT(),
					Sched: sched.DefaultConfig(), Seed: 42,
					PackageMaxPowerW: []float64{50},
					ThrottleEnabled:  true, Scope: ThrottlePerLogical,
					RespawnFinished: true,
				})
				m.SpawnN(workload.WithWork(cat.Bitcnts(), 3000), 6)
				m.SpawnN(workload.WithWork(cat.Memrw(), 3000), 6)
				return m
			},
			runMS: 45_000,
		},
		{
			// The Fig. 9 setup: SMT machine, one hot task hopping
			// between packages under per-package throttling.
			name: "smt-hot-migration",
			build: func(e Engine) *Machine {
				m := MustNew(Config{
					Engine: e, Layout: topology.XSeries445(),
					Sched: sched.DefaultConfig(), Seed: 7,
					PackageMaxPowerW: []float64{40},
					ThrottleEnabled:  true, Scope: ThrottlePerPackage,
					MonitorPeriodMS: 100,
				})
				m.Spawn(cat.Bitcnts())
				return m
			},
			runMS: 60_000,
		},
		{
			// §7 CMP: per-core throttling, core coupling, dual-core
			// chips, hot rotation across the mc level.
			name: "cmp-per-core",
			build: func(e Engine) *Machine {
				m := MustNew(Config{
					Engine: e, Layout: topology.CMP2x2(),
					Sched: sched.DefaultConfig(), Seed: 3,
					PackageProps:     []energyProps{props01(), props01()},
					PackageMaxPowerW: []float64{100},
					ThrottleEnabled:  true, Scope: ThrottlePerCore,
				})
				m.Spawn(cat.Bitcnts())
				m.Spawn(cat.Bzip2())
				return m
			},
			runMS: 60_000,
		},
		{
			// §7 unit extension: unit hotspots, unit throttling, and
			// unit-aware balancing of equal-power int/FP tasks.
			name: "unit-thermal",
			build: func(e Engine) *Machine {
				pol := sched.DefaultConfig()
				pol.UnitAwareBalancing = true
				m := MustNew(Config{
					Engine: e, Layout: topology.CMP2x2(),
					Sched: pol, Seed: 9,
					PackageProps:     []energyProps{props01(), props01()},
					PackageMaxPowerW: []float64{100},
					ThrottleEnabled:  true, Scope: ThrottlePerCore,
					UnitThermal: true, UnitLimitC: 45,
				})
				m.SpawnN(cat.Intmix(), 2)
				m.SpawnN(cat.Fpmix(), 2)
				return m
			},
			runMS: 45_000,
		},
		{
			// Sparse respawn: two finite tasks churning through
			// completion → placement on a mostly-idle machine, so
			// energy-aware placement repeatedly reads the metrics of
			// parked CPUs mid-execution-phase (the async engine's
			// settle-split path) and re-activates them.
			name: "sparse-respawn",
			build: func(e Engine) *Machine {
				m := MustNew(Config{
					Engine: e, Layout: topology.XSeries445NoSMT(),
					Sched: sched.DefaultConfig(), Seed: 13,
					PackageMaxPowerW: []float64{60},
					RespawnFinished:  true,
				})
				m.Spawn(workload.WithWork(cat.Bitcnts(), 1500))
				m.Spawn(workload.WithWork(cat.Memrw(), 2200))
				return m
			},
			runMS: 45_000,
		},
		{
			// Sparse unit-thermal: one task wandering a CMP machine
			// under unit throttling, so whole packages park and settle
			// their unit hotspots (StepOverBatched over the gap) and
			// their unit-throttle accounting lazily.
			name: "unit-sparse",
			build: func(e Engine) *Machine {
				pol := sched.DefaultConfig()
				pol.UnitAwareBalancing = true
				m := MustNew(Config{
					Engine: e, Layout: topology.CMP2x2(),
					Sched: pol, Seed: 17,
					PackageProps:     []energyProps{props01(), props01()},
					PackageMaxPowerW: []float64{100},
					ThrottleEnabled:  true, Scope: ThrottlePerCore,
					UnitThermal: true, UnitLimitC: 45,
					MonitorPeriodMS: 2000,
				})
				m.Spawn(cat.Fpmix())
				return m
			},
			runMS: 45_000,
		},
		{
			// The async engine's motivating regime: a 64-logical-CPU
			// server where most CPUs sleep (parking whole SMT+CMP
			// packages) while two CPU-bound tasks stay hot, with
			// periodic monitoring forcing settle points.
			name: "wide-idle",
			build: func(e Engine) *Machine {
				m := MustNew(Config{
					Engine: e, Layout: topology.Server64(),
					Sched: sched.DefaultConfig(), Seed: 21,
					PackageMaxPowerW: []float64{120}, MonitorPeriodMS: 1000,
				})
				m.SpawnN(cat.Sshd(), 3)
				m.SpawnN(cat.Httpd(), 3)
				m.SpawnN(cat.Bitcnts(), 2)
				return m
			},
			runMS: 24_000,
		},
		{
			// Server1024: the widest layout, quad-core packages with SMT.
			// A small interactive+CPU-bound mix leaves most of the 1024
			// logical CPUs parked while hot-core checks scan the 4-core
			// chips; kept short because the lockstep reference steps
			// every CPU every millisecond.
			name: "server1024",
			build: func(e Engine) *Machine {
				m := MustNew(Config{
					Engine: e, Layout: topology.Server1024(),
					Sched: sched.DefaultConfig(), Seed: 29,
					PackageMaxPowerW: []float64{360}, MonitorPeriodMS: 1000,
				})
				m.SpawnN(cat.Sshd(), 4)
				m.SpawnN(cat.Httpd(), 4)
				m.SpawnN(cat.Bitcnts(), 3)
				m.SpawnN(cat.Memrw(), 2)
				return m
			},
			runMS: 6_000,
		},
		{
			// DVFS, ondemand governor: interactive tasks idle below the
			// Down threshold and step their CPUs down the ladder, CPU-
			// bound respawning tasks jump back to nominal; pending
			// transitions, governor deadlines, and parked CPUs keeping
			// their last P-state all interleave.
			name: "dvfs-ondemand",
			build: func(e Engine) *Machine {
				m := MustNew(Config{
					Engine: e, Layout: topology.XSeries445NoSMT(),
					Sched: sched.DefaultConfig(), Seed: 23,
					PackageMaxPowerW: []float64{60}, MonitorPeriodMS: 500,
					DVFS:            &dvfs.Config{Governor: "ondemand"},
					RespawnFinished: true,
				})
				m.SpawnN(cat.Sshd(), 2)
				m.SpawnN(cat.Bash(), 2)
				m.Spawn(workload.WithWork(cat.Bitcnts(), 2500))
				m.Spawn(workload.WithWork(cat.Memrw(), 1800))
				return m
			},
			runMS: 45_000,
		},
		{
			// DVFS, thermal governor, SMT machine, hlt throttle armed as
			// backstop: the governor downclocks hot CPUs ahead of the
			// throttle while hot task migration hops the task between
			// cores running at unequal frequencies.
			name: "dvfs-thermal",
			build: func(e Engine) *Machine {
				m := MustNew(Config{
					Engine: e, Layout: topology.XSeries445(),
					Sched: sched.DefaultConfig(), Seed: 31,
					PackageMaxPowerW: []float64{40},
					ThrottleEnabled:  true, Scope: ThrottlePerPackage,
					DVFS:            &dvfs.Config{Governor: "thermal"},
					MonitorPeriodMS: 1000,
				})
				m.Spawn(cat.Bitcnts())
				m.Spawn(cat.Bzip2())
				return m
			},
			runMS: 60_000,
		},
		{
			// DVFS × §7 unit extension: ondemand downclocking composes
			// with unit hotspots and unit-aware balancing, so the
			// voltage-scaled per-unit energy profiles (dispatch
			// estUnitsJ) drive cross-engine-identical exchanges.
			name: "dvfs-unit-thermal",
			build: func(e Engine) *Machine {
				pol := sched.DefaultConfig()
				pol.UnitAwareBalancing = true
				m := MustNew(Config{
					Engine: e, Layout: topology.CMP2x2(),
					Sched: pol, Seed: 41,
					PackageProps:     []energyProps{props01(), props01()},
					PackageMaxPowerW: []float64{100},
					ThrottleEnabled:  true, Scope: ThrottlePerCore,
					UnitThermal: true, UnitLimitC: 45,
					DVFS: &dvfs.Config{Governor: "ondemand"},
				})
				m.SpawnN(cat.Intmix(), 2)
				m.SpawnN(cat.Fpmix(), 2)
				m.SpawnN(cat.Bash(), 2)
				return m
			},
			runMS: 45_000,
		},
		{
			// Fully idle machine: no tasks at all, every package parks
			// immediately, and the cores warm toward the idle steady
			// temperature entirely inside the async engine's closed-form
			// package settling — pins PeakTempC tracking on that path.
			name: "all-idle",
			build: func(e Engine) *Machine {
				return MustNew(Config{
					Engine: e, Layout: topology.XSeries445NoSMT(),
					Sched: sched.DefaultConfig(), Seed: 1,
					PackageMaxPowerW: []float64{40},
					MonitorPeriodMS:  5000,
				})
			},
			runMS: 60_000,
		},
		{
			// §2.3 task-throttling policy: per-tick head rotation while
			// engaged (the planner's forced-lockstep path).
			name: "task-throttling",
			build: func(e Engine) *Machine {
				m := MustNew(Config{
					Engine: e, Layout: topology.XSeries445NoSMT(),
					Sched: sched.BaselineConfig(), Seed: 5,
					PackageMaxPowerW: []float64{45},
					ThrottleEnabled:  true, Scope: ThrottlePerLogical,
					TaskThrottling: true,
				})
				m.SpawnN(cat.Bitcnts(), 2)
				m.SpawnN(cat.Memrw(), 2)
				return m
			},
			runMS: 30_000,
		},
		{
			// Heterogeneous thermal calibration: the two chips have
			// different time constants (τ = R·C of 15s vs 4s), so the
			// shared thermal-weight cache is invalid and every engine
			// must take the per-tracker ThermalWeightFor fallback —
			// including the fast engines' closed-form settles over
			// multi-ms quanta. Throttling keeps the weights observable
			// through trigger timing, not just through temperatures.
			name: "hetero-thermal",
			build: func(e Engine) *Machine {
				m := MustNew(Config{
					Engine: e, Layout: topology.CMP2x2(),
					Sched: sched.DefaultConfig(), Seed: 11,
					PackageProps: []energyProps{
						props01(),                      // τ = 15s
						{R: 0.25, C: 16, AmbientC: 25}, // τ = 4s
					},
					PackageMaxPowerW: []float64{95, 80},
					ThrottleEnabled:  true, Scope: ThrottlePerCore,
					MonitorPeriodMS: 250,
				})
				m.SpawnN(cat.Bitcnts(), 2)
				m.Spawn(cat.Bzip2())
				return m
			},
			runMS: 45_000,
		},
		{
			// Fault injection: mis-calibrated weights drifting further
			// down while the online recalibrator pulls them back from a
			// noisy, occasionally-dropped, one-window-delayed diode.
			// Exercises the drift and residual-window planner horizons
			// and the recal path's cross-engine determinism.
			name: "faults-drift-recal",
			build: func(e Engine) *Machine {
				m := MustNew(Config{
					Engine: e, Layout: topology.XSeries445NoSMT(),
					Sched: sched.DefaultConfig(), Seed: 7,
					PackageMaxPowerW: []float64{50},
					ThrottleEnabled:  true, Scope: ThrottlePerPackage,
					MonitorPeriodMS: 500,
					RespawnFinished: true,
					Faults: &faults.Spec{
						WeightScale:   []float64{0.7},
						DriftPeriodMS: 400,
						DriftFactor:   []float64{0.95},
						DriftSteps:    6,
						RecalPeriodMS: 250,
						RecalRate:     0.2,
						RecalWarmup:   1,
						DiodeNoiseC:   0.3,
						SampleDropP:   0.15,
						SampleDelay:   1,
					},
				})
				m.SpawnN(workload.WithWork(cat.Bitcnts(), 2500), 5)
				m.SpawnN(workload.WithWork(cat.Memrw(), 2500), 4)
				return m
			},
			runMS: 30_000,
		},
		{
			// Fault injection: a grossly under-estimating model (half
			// weights, never recalibrated) with a diode that freezes
			// mid-run. The divergence detector must engage the fallback
			// limits identically across engines, with every throttle
			// group re-evaluated against the changed limits.
			name: "faults-fallback-stuck",
			build: func(e Engine) *Machine {
				m := MustNew(Config{
					Engine: e, Layout: topology.CMP2x2(),
					Sched: sched.DefaultConfig(), Seed: 13,
					PackageProps:     []energyProps{props01(), props01()},
					PackageMaxPowerW: []float64{90, 90},
					ThrottleEnabled:  true, Scope: ThrottlePerCore,
					MonitorPeriodMS: 1000,
					Faults: &faults.Spec{
						WeightScale:       []float64{0.5},
						RecalPeriodMS:     200,
						FallbackResidualW: 12,
						FallbackAfter:     2,
						FallbackRecovery:  4,
						FallbackScale:     0.6,
						DiodeStuckAfterMS: 6000,
						DiodeResolutionC:  0.5,
					},
				})
				m.SpawnN(cat.Bitcnts(), 3)
				m.SpawnN(cat.Sshd(), 2)
				m.Spawn(cat.Bzip2())
				return m
			},
			runMS: 20_000,
		},
	}
}

// TestEngineEquivalence runs every scenario through both engines and
// asserts the acceptance contract against the lockstep reference:
// exactly equal discrete outcomes (completions, migrations with their
// timestamps and reasons, throttle decisions, idle/halted ticks),
// ≤1e-6 relative difference on temperatures and energies, and
// byte-identical event traces.
func TestEngineEquivalence(t *testing.T) {
	for _, sc := range engineScenarios() {
		t.Run(sc.name+"/async", func(t *testing.T) {
			lock := sc.build(EngineLockstep)
			lock.Cfg.Trace = trace.New(0)
			lock.Run(sc.runMS)
			got := sc.build(EngineAsync)
			got.Cfg.Trace = trace.New(0)
			// Advance in chunks to also exercise Run-boundary clamping
			// and the end-of-Run settling.
			for i := 0; i < 3; i++ {
				got.Run(sc.runMS / 3)
			}
			if rem := sc.runMS - 3*(sc.runMS/3); rem > 0 {
				got.Run(rem)
			}
			assertEquivalent(t, lock, got)
			lockCSV := traceCSV(t, lock.Cfg.Trace)
			if gotCSV := traceCSV(t, got.Cfg.Trace); gotCSV != lockCSV {
				t.Errorf("event trace differs from lockstep (%d vs %d bytes): %s",
					len(gotCSV), len(lockCSV), firstTraceDiff(lockCSV, gotCSV))
			}
		})
	}
}

// TestSpawnBetweenRunsEquivalence spawns work between Run calls, while
// CPUs sit parked from the previous Run. The placement reads parked
// CPUs' settled state, so every engine must leave its per-step phase
// markers at their between-steps values when Run returns: a spawn that
// settled parked metrics or packages one tick past the clock would
// shift idle ticks, temperatures and energy off the lockstep reference.
func TestSpawnBetweenRunsEquivalence(t *testing.T) {
	cat := catalog()
	run := func(e Engine) *Machine {
		m := MustNew(Config{
			Engine: e, Layout: topology.XSeries445NoSMT(),
			Sched: sched.DefaultConfig(), Seed: 5,
			PackageMaxPowerW: []float64{40}, ThrottleEnabled: true,
			Scope: ThrottlePerPackage, Trace: trace.New(0),
		})
		m.Spawn(cat.Bitcnts())
		m.Run(3000)
		m.Spawn(cat.Bitcnts())
		m.Spawn(cat.Memrw())
		m.Run(3000)
		m.Spawn(cat.Bzip2())
		m.Run(3000)
		return m
	}
	t.Run("async", func(t *testing.T) {
		lock, got := run(EngineLockstep), run(EngineAsync)
		assertEquivalent(t, lock, got)
		if lockCSV, gotCSV := traceCSV(t, lock.Cfg.Trace), traceCSV(t, got.Cfg.Trace); gotCSV != lockCSV {
			t.Errorf("event trace differs from lockstep: %s", firstTraceDiff(lockCSV, gotCSV))
		}
	})
}

// traceCSV renders a recorder's events as CSV for byte comparison.
func traceCSV(t *testing.T, rec *trace.Recorder) string {
	t.Helper()
	var b strings.Builder
	if err := rec.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// firstTraceDiff locates the first differing trace line for the error
// message.
func firstTraceDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: %q vs %q", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("line count %d vs %d", len(al), len(bl))
}

// assertEquivalent asserts the cross-engine contract between a lockstep
// reference machine and another engine's machine after identical runs:
// the oracle's snapshot comparison at 1e-6, plus the machine's own
// conservation and bookkeeping invariants.
func assertEquivalent(t *testing.T, lock, got *Machine) {
	t.Helper()
	for _, d := range DiffSnapshots(lock.Snapshot(), got.Snapshot(), 1e-6) {
		t.Errorf("%s vs lockstep: %s", got.Cfg.Engine, d)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Errorf("%s: %v", got.Cfg.Engine, err)
	}
}

// TestPlannerQuantaAreLarge sanity-checks that the default engine's
// planner actually produces multi-millisecond quanta on an idle machine
// (the whole point of planning) by counting steps.
func TestPlannerQuantaAreLarge(t *testing.T) {
	m := MustNew(Config{
		Layout: topology.XSeries445NoSMT(),
		Sched:  sched.DefaultConfig(),
		Seed:   1,
	})
	m.Spawn(catalog().Sshd())
	steps := 0
	start := m.NowMS()
	for m.NowMS() < start+10_000 {
		m.step(m.maxQuantum)
		steps++
	}
	if avg := 10_000.0 / float64(steps); avg < 5 {
		t.Errorf("average quantum = %.1f ms; the planner is not batching", avg)
	}
}

// TestEngineString covers the Engine stringer and parser, and pins the
// zero value to the async engine.
func TestEngineString(t *testing.T) {
	if Engine(0) != EngineAsync {
		t.Errorf("zero Engine is %v, want async", Engine(0))
	}
	if EngineLockstep.String() != "lockstep" || EngineAsync.String() != "async" {
		t.Error("engine names wrong")
	}
	for _, name := range []string{"lockstep", "async"} {
		e, err := ParseEngine(name)
		if err != nil || e.String() != name {
			t.Errorf("ParseEngine(%q) = %v, %v", name, e, err)
		}
	}
	for _, name := range []string{"turbo", "batched", "parallel"} {
		if _, err := ParseEngine(name); err == nil {
			t.Errorf("ParseEngine accepted %q", name)
		}
	}
	if s := Engine(9).String(); s != fmt.Sprintf("engine(%d)", 9) {
		t.Errorf("unknown engine name %q", s)
	}
}

// TestEngineParallelMapsToAsync pins the retired engine's name, which
// stays only for the repository benchmark: New builds an async machine
// for it, and its run equals one built on EngineAsync bit for bit.
func TestEngineParallelMapsToAsync(t *testing.T) {
	build := func(e Engine) *Machine {
		m := MustNew(Config{
			Engine: e, Layout: topology.Server64(),
			Sched: sched.DefaultConfig(), Seed: 1, Trace: trace.New(0),
		})
		m.SpawnN(catalog().Bitcnts(), 40)
		m.Run(2000)
		return m
	}
	ref, got := build(EngineAsync), build(EngineParallel)
	if got.Cfg.Engine != EngineAsync || !got.async {
		t.Fatalf("EngineParallel built %v, want async", got.Cfg.Engine)
	}
	if diffs := DiffSnapshots(ref.Snapshot(), got.Snapshot(), 0); len(diffs) > 0 {
		t.Errorf("snapshot differs from async: %v", diffs)
	}
	if refCSV, gotCSV := traceCSV(t, ref.Cfg.Trace), traceCSV(t, got.Cfg.Trace); gotCSV != refCSV {
		t.Errorf("event trace differs from async: %s", firstTraceDiff(refCSV, gotCSV))
	}
}

// Regression: the chip-coupling term must be computed from the cores'
// raw powers, not from already-coupled values of earlier loop
// iterations — under symmetric load every core of a package must heat
// identically, regardless of core index.
func TestCouplingSymmetricUnderSymmetricLoad(t *testing.T) {
	m := MustNew(Config{
		Layout:       topology.CMP2x2(),
		Sched:        sched.BaselineConfig(),
		Seed:         4,
		PackageProps: []energyProps{props01(), props01()},
	})
	m.SpawnN(catalog().Aluadd(), 4) // one identical task per core
	m.Run(20_000)
	for pkg := 0; pkg < 2; pkg++ {
		a, b := m.CoreTemp(pkg*2), m.CoreTemp(pkg*2+1)
		if d := math.Abs(a - b); d > 0.05 {
			t.Errorf("package %d: symmetric load heated cores asymmetrically: %.3f vs %.3f °C", pkg, a, b)
		}
	}
}
