package energysched_test

import (
	"math"
	"testing"
	"time"

	"energysched"
)

func TestQuickstartFlow(t *testing.T) {
	sys, err := energysched.New(energysched.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	task := sys.Spawn(sys.Programs().Bitcnts())
	sys.Run(30 * time.Second)
	if w := task.Profile.Watts(); math.Abs(w-61) > 2 {
		t.Fatalf("bitcnts profile = %v W, want ~61", w)
	}
	if sys.Now() != 30*time.Second {
		t.Fatalf("Now = %v", sys.Now())
	}
	cpu := sys.TaskCPU(task)
	if cpu < 0 {
		t.Fatal("task has no CPU")
	}
	if tp := sys.ThermalPower(cpu); tp < 40 {
		t.Fatalf("thermal power = %v, want rising toward 61", tp)
	}
}

func TestDefaultOptionsShape(t *testing.T) {
	sys, err := energysched.New(energysched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Default machine: 8 logical CPUs, idle.
	sys.Run(time.Second)
	if sys.WorkRate() != 0 {
		t.Fatal("idle machine did work")
	}
	if sys.PackageTemp(0) < 25 {
		t.Fatal("temperature below ambient")
	}
}

func TestPolicyPresetsDiffer(t *testing.T) {
	run := func(p energysched.Policy) float64 {
		sys, err := energysched.New(energysched.Options{
			Layout:           energysched.XSeries445(),
			Policy:           p,
			Seed:             3,
			PackageMaxPowerW: []float64{40},
			Throttle:         true,
			Scope:            energysched.ThrottlePerPackage,
		})
		if err != nil {
			t.Fatal(err)
		}
		sys.Spawn(sys.Programs().Bitcnts())
		sys.Run(90 * time.Second)
		return sys.WorkRate()
	}
	aware := run(energysched.PolicyEnergyAware)
	base := run(energysched.PolicyBaseline)
	if aware <= base {
		t.Fatalf("energy-aware work rate %v should exceed baseline %v", aware, base)
	}
}

func TestCalibratedEstimation(t *testing.T) {
	sys, err := energysched.New(energysched.Options{Seed: 5, CalibratedEstimation: true})
	if err != nil {
		t.Fatal(err)
	}
	task := sys.Spawn(sys.Programs().Memrw())
	sys.Run(20 * time.Second)
	// Calibrated weights carry a few percent of error but stay close.
	if w := task.Profile.Watts(); math.Abs(w-38) > 4 {
		t.Fatalf("memrw profile with calibrated estimator = %v W", w)
	}
}

func TestFiniteWorkAndThroughput(t *testing.T) {
	sys, err := energysched.New(energysched.Options{Seed: 7, RespawnFinished: true})
	if err != nil {
		t.Fatal(err)
	}
	sys.SpawnN(energysched.FiniteWork(sys.Programs().Aluadd(), 2*time.Second), 8)
	sys.Run(10 * time.Second)
	if sys.Completions() < 30 {
		t.Fatalf("completions = %d", sys.Completions())
	}
	if sys.Throughput() <= 0 {
		t.Fatal("throughput not positive")
	}
	sys.ResetStats()
	if sys.Completions() != 0 {
		t.Fatal("ResetStats did not clear completions")
	}
}

func TestMonitoringSeries(t *testing.T) {
	sys, err := energysched.New(energysched.Options{Seed: 9, MonitorPeriod: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sys.Spawn(sys.Programs().Pushpop())
	sys.Run(5 * time.Second)
	s := sys.ThermalPowerSeries(0)
	if s == nil || s.Len() < 40 {
		t.Fatalf("series missing or short: %v", s)
	}
}

func TestCustomSchedConfig(t *testing.T) {
	cfg := energysched.SchedConfig{
		EnergyBalancing:  true,
		HotTaskMigration: false,
		BalancePeriodMS:  100,
		HotCheckPeriodMS: 100,
	}
	sys, err := energysched.New(energysched.Options{Sched: &cfg, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sys.Spawn(sys.Programs().Bzip2())
	sys.Run(2 * time.Second)
}

func TestMigrationEventsExposed(t *testing.T) {
	sys, err := energysched.New(energysched.Options{
		Layout:           energysched.XSeries445(),
		Seed:             13,
		PackageMaxPowerW: []float64{40},
		Throttle:         true,
		Scope:            energysched.ThrottlePerPackage,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Spawn(sys.Programs().Bitcnts())
	sys.Run(60 * time.Second)
	if sys.MigrationCount() == 0 || len(sys.Migrations()) == 0 {
		t.Fatal("expected hot-task migrations")
	}
	if sys.AvgThrottledFrac() > 0.05 {
		t.Fatalf("throttled %.1f%% despite migration", sys.AvgThrottledFrac()*100)
	}
}

func TestInvalidOptions(t *testing.T) {
	_, err := energysched.New(energysched.Options{
		PackageProps: []energysched.ThermalProperties{{R: -1, C: 1}},
	})
	if err == nil {
		t.Fatal("invalid thermal properties accepted")
	}
}

func TestFacadeTracing(t *testing.T) {
	rec := energysched.NewTraceRecorder(0)
	sys, err := energysched.New(energysched.Options{Seed: 21, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	sys.Spawn(sys.Programs().Bzip2())
	sys.Run(3 * time.Second)
	if rec.Len() == 0 {
		t.Fatal("no events recorded through the facade")
	}
	if rec.CountByKind()["dispatch"] == 0 {
		t.Fatal("no dispatch events")
	}
}

// Smoke-test the Reproducer facade: each method runs a shortened
// version of its experiment and returns a plausibly shaped result.
// (The benchmarks exercise the full-length versions.)
func TestReproduceFacade(t *testing.T) {
	var rep energysched.Reproducer
	if rows := rep.Table1(2006, 120); len(rows) != 5 {
		t.Errorf("Table1 rows = %d", len(rows))
	}
	if rows, err := rep.Table2(2006, 5000); err != nil || len(rows) != 6 {
		t.Errorf("Table2 rows = %d, err = %v", len(rows), err)
	}
	if r := rep.Figure3(); r.ThermalPower.Len() == 0 {
		t.Error("Figure3 empty")
	}
	if r := rep.Figure9(7, 30_000); len(r.Migrations) == 0 {
		t.Error("Figure9 recorded no migrations")
	}
	if r := rep.CMP(7, 40_000); r.GainPct <= 0 {
		t.Errorf("CMP gain = %v", r.GainPct)
	}
	if rows := rep.Ablations(61, 60_000); len(rows) != 3 {
		t.Errorf("ablation rows = %d", len(rows))
	}
	if r := rep.UnitAware(7, 40_000); r.MaxUnitTempBlind <= 25 {
		t.Errorf("unit temp = %v", r.MaxUnitTempBlind)
	}
	if r := rep.PolicyComparison(2006, 40_000); r.WorkRateEnergyAware <= 0 {
		t.Errorf("policy comparison work rate = %v", r.WorkRateEnergyAware)
	}
	if r := rep.HotTaskSpeedup(1, 40); r.TimeReductionPct <= 0 {
		t.Errorf("speedup = %v", r.TimeReductionPct)
	}
	if mc, err := rep.MigrationCounts(61, 30_000); err != nil || mc.SMTOffEnabled == 0 {
		t.Errorf("SMT-off enabled run: %d migrations, err %v", mc.SMTOffEnabled, err)
	}
	if pts, err := rep.Figure8(63); err != nil || len(pts) != 10 {
		t.Errorf("Figure8 points = %d, err %v", len(pts), err)
	}
	if pts, err := rep.Figure10(64); err != nil || len(pts) != 8 {
		t.Errorf("Figure10 points = %d, err %v", len(pts), err)
	}
	if r := rep.Figure6(61); len(r.Series) != 8 {
		t.Errorf("Figure6 series = %d", len(r.Series))
	}
	if r := rep.Figure7(61); r.SpreadW <= 0 {
		t.Errorf("Figure7 spread = %v", r.SpreadW)
	}
	res, err := rep.Table3(2006)
	if err != nil {
		t.Fatalf("Table3: %v", err)
	}
	if res.AvgDisabled <= res.AvgEnabled {
		t.Error("Table3 shape wrong through facade")
	}
}

// Accessor coverage: the remaining facade surface.
func TestFacadeAccessors(t *testing.T) {
	sys, err := energysched.New(energysched.Options{
		Layout:           energysched.CMP2x2(),
		Seed:             31,
		PackageMaxPowerW: []float64{100},
		Throttle:         true,
		Scope:            energysched.ThrottlePerCore,
		UnitThermal:      true,
		UnitLimitC:       60,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Spawn(sys.Programs().Gcc())
	sys.Run(5 * time.Second)
	if sys.CoreTemp(0) < 25 || sys.MaxUnitTemp() < 25 {
		t.Error("temperatures below ambient")
	}
	if sys.ThrottledFrac(0) < 0 {
		t.Error("negative throttle fraction")
	}
	def, base := energysched.DefaultSchedConfig(), energysched.BaselineSchedConfig()
	if !def.EnergyBalancing || base.EnergyBalancing {
		t.Error("sched config presets wrong")
	}
}

// The facade exposes engine selection: the default async engine
// reproduces the same run as the lockstep engine for the same seed, and
// lockstep remains available as the reference.
func TestEngineSelection(t *testing.T) {
	run := func(e energysched.Engine) (int64, int64, float64) {
		sys, err := energysched.New(energysched.Options{
			Engine:           e,
			Seed:             21,
			PackageMaxPowerW: []float64{50},
			Throttle:         true,
			RespawnFinished:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		progs := sys.Programs()
		sys.SpawnN(energysched.FiniteWork(progs.Bitcnts(), 2*time.Second), 4)
		sys.SpawnN(progs.Bash(), 4)
		sys.Run(30 * time.Second)
		return sys.Completions(), sys.MigrationCount(), sys.PackageTemp(0)
	}
	cA, mA, tA := run(energysched.EngineAsync)
	cL, mL, tL := run(energysched.EngineLockstep)
	if cA != cL || mA != mL {
		t.Fatalf("engines disagree: completions %d/%d migrations %d/%d", cA, cL, mA, mL)
	}
	if d := math.Abs(tA-tL) / tL; d > 1e-6 {
		t.Fatalf("package temps diverge: %.8f vs %.8f", tA, tL)
	}
	if cA == 0 {
		t.Fatal("no completions")
	}
}
