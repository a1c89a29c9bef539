package machine

import (
	"math"
	"testing"

	"energysched/internal/dvfs"
	"energysched/internal/energy"
	"energysched/internal/sched"
	"energysched/internal/thermal"
	"energysched/internal/topology"
	"energysched/internal/workload"
)

func catalog() *workload.Catalog {
	return workload.NewCatalog(energy.DefaultTrueModel())
}

// base returns a config for the 8-way SMT-off reference machine with a
// 60 W budget per package and no throttling.
func base() Config {
	return Config{
		Layout:           topology.XSeries445NoSMT(),
		Sched:            sched.DefaultConfig(),
		Seed:             1,
		PackageMaxPowerW: []float64{60},
		MonitorPeriodMS:  100,
	}
}

func TestIdleMachineSettlesAtSleepPower(t *testing.T) {
	m := MustNew(base())
	m.Run(90000) // 6τ: fully settled
	for c := 0; c < 8; c++ {
		tp := m.Sched.Power[c].ThermalPower()
		if math.Abs(tp-13.6) > 0.1 {
			t.Fatalf("idle CPU %d thermal power = %v, want 13.6", c, tp)
		}
	}
	// Package temperature: ambient + R·13.6 = 25 + 0.2·13.6 = 27.72.
	if temp := m.PackageTemp(0); math.Abs(temp-27.72) > 0.1 {
		t.Fatalf("idle package temp = %v", temp)
	}
	if m.IdleFrac(3) < 0.99 {
		t.Fatalf("idle frac = %v", m.IdleFrac(3))
	}
}

func TestSingleHotTaskHeatsItsCPU(t *testing.T) {
	cfg := base()
	cfg.Sched = sched.BaselineConfig() // no energy policy: task stays put
	m := MustNew(cfg)
	task := m.Spawn(catalog().Bitcnts())
	m.Run(90000) // 6τ
	cpu := task.CPU
	tp := m.Sched.Power[int(cpu)].ThermalPower()
	if math.Abs(tp-61) > 1.5 {
		t.Fatalf("bitcnts CPU thermal power = %v, want ~61", tp)
	}
	// Its package approaches 25 + 0.2·61 ≈ 37.2 °C.
	pkg := cfg.Layout.Package(cpu)
	if temp := m.PackageTemp(pkg); math.Abs(temp-37.2) > 0.5 {
		t.Fatalf("package temp = %v, want ~37.2", temp)
	}
	// The task's energy profile converged to its true power.
	if w := task.Profile.Watts(); math.Abs(w-61) > 1.5 {
		t.Fatalf("profile = %v W, want ~61", w)
	}
}

func TestProfilesTrackTable2Powers(t *testing.T) {
	cfg := base()
	m := MustNew(cfg)
	c := catalog()
	progs := []*workload.Program{c.Bitcnts(), c.Memrw(), c.Aluadd(), c.Pushpop()}
	want := []float64{61, 38, 50, 47}
	tasks := make([]*sched.Task, len(progs))
	for i, p := range progs {
		tasks[i] = m.Spawn(p)
	}
	m.Run(20000)
	for i, task := range tasks {
		if w := task.Profile.Watts(); math.Abs(w-want[i]) > 2 {
			t.Errorf("%s profile = %.1f W, want ~%v", progs[i].Name, w, want[i])
		}
	}
}

func TestThrottlingCapsThermalPower(t *testing.T) {
	cfg := base()
	cfg.Sched = sched.BaselineConfig()
	cfg.PackageMaxPowerW = []float64{40}
	cfg.ThrottleEnabled = true
	cfg.Scope = ThrottlePerPackage
	m := MustNew(cfg)
	task := m.Spawn(catalog().Bitcnts())
	m.Run(120000)
	cpu := int(task.CPU)
	// Thermal power of the CPU must hover at the 40 W limit.
	tp := m.Sched.Power[cpu].ThermalPower()
	if tp > 41 || tp < 36 {
		t.Fatalf("throttled thermal power = %v, want ≈40", tp)
	}
	// Expected duty cycle: d·61 + (1−d)·13.6 = 40 → throttled ≈ 44 %.
	frac := m.ThrottledFrac(task.CPU)
	if frac < 0.30 || frac < 0.01 {
		t.Fatalf("throttled frac = %v, want ≈0.44", frac)
	}
	if frac > 0.60 {
		t.Fatalf("throttled frac = %v too high", frac)
	}
}

// §6.4 / Fig. 9: with hot task migration, a single hot task hops between
// packages roughly every 10 s, never lands on its own package's sibling,
// never crosses the node boundary, and is never throttled.
func TestHotTaskMigrationRoundRobin(t *testing.T) {
	cfg := Config{
		Layout:           topology.XSeries445(),
		Sched:            sched.DefaultConfig(),
		Seed:             7,
		PackageMaxPowerW: []float64{40},
		ThrottleEnabled:  true,
		Scope:            ThrottlePerPackage,
		MonitorPeriodMS:  100,
	}
	m := MustNew(cfg)
	task := m.Spawn(catalog().Bitcnts())
	startNode := cfg.Layout.Node(task.CPU)
	m.Run(200000) // 200 s

	if task.NodeMigrations != 0 {
		t.Errorf("task crossed the node boundary %d times", task.NodeMigrations)
	}
	if cfg.Layout.Node(task.CPU) != startNode {
		t.Error("task ended on the wrong node")
	}
	migs := len(m.Migrations)
	if migs < 8 || migs > 40 {
		t.Errorf("migrations in 200 s = %d, want ~20 (one per ~10 s)", migs)
	}
	// Visited packages: all four of the node, round-robin-ish.
	visited := map[int]bool{}
	for _, ev := range m.Migrations {
		visited[cfg.Layout.Package(ev.To)] = true
		if cfg.Layout.SamePackage(ev.From, ev.To) {
			t.Errorf("migration to SMT sibling: %v", ev)
		}
	}
	if len(visited) != 4 {
		t.Errorf("visited %d packages, want 4", len(visited))
	}
	// Throttling should be (nearly) eliminated.
	if f := m.AvgThrottledFrac(); f > 0.02 {
		t.Errorf("avg throttled frac with migration = %v", f)
	}
}

// Without hot task migration the same single task is throttled heavily.
func TestHotTaskWithoutMigrationThrottles(t *testing.T) {
	cfg := Config{
		Layout:           topology.XSeries445(),
		Sched:            sched.BaselineConfig(),
		Seed:             7,
		PackageMaxPowerW: []float64{40},
		ThrottleEnabled:  true,
		Scope:            ThrottlePerPackage,
	}
	m := MustNew(cfg)
	task := m.Spawn(catalog().Bitcnts())
	m.Run(200000)
	if f := m.ThrottledFrac(task.CPU); f < 0.30 {
		t.Errorf("baseline throttled frac = %v, want ≈0.5", f)
	}
	if len(m.Migrations) != 0 {
		t.Errorf("baseline migrated %d times", len(m.Migrations))
	}
}

// §6.1 analogue in miniature: energy balancing narrows the spread of
// per-CPU thermal powers for a mixed workload.
func TestEnergyBalancingNarrowsThermalSpread(t *testing.T) {
	run := func(energyAware bool) (spread float64) {
		cfg := base()
		if energyAware {
			cfg.Sched = sched.DefaultConfig()
		} else {
			cfg.Sched = sched.BaselineConfig()
		}
		cfg.Seed = 3
		m := MustNew(cfg)
		c := catalog()
		for _, p := range []*workload.Program{c.Bitcnts(), c.Memrw(), c.Aluadd(), c.Pushpop(), c.Openssl(), c.Bzip2()} {
			m.SpawnN(p, 3)
		}
		m.Run(120000)
		// Spread over the steady tail of the run.
		lo, hi := math.Inf(1), math.Inf(-1)
		for cpu := 0; cpu < 8; cpu++ {
			v := m.ThermalPowerSeries(topology.CPUID(cpu)).Tail(0.25)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		return hi - lo
	}
	balanced := run(true)
	unbalanced := run(false)
	if balanced >= unbalanced {
		t.Fatalf("energy balancing did not narrow spread: %v vs %v", balanced, unbalanced)
	}
	if balanced > 6 {
		t.Errorf("balanced spread = %v W, want tight band", balanced)
	}
}

func TestThroughputAccounting(t *testing.T) {
	cfg := base()
	cfg.RespawnFinished = true
	m := MustNew(cfg)
	// 8 CPUs × 10 s; each task needs 2 s of CPU → ~40 completions.
	m.SpawnN(workload.WithWork(catalog().Aluadd(), 2000), 8)
	m.Run(10000)
	if m.Completions < 30 || m.Completions > 45 {
		t.Fatalf("completions = %d, want ~40", m.Completions)
	}
	if m.CompletionsByProg["aluadd"] != m.Completions {
		t.Fatal("per-program accounting inconsistent")
	}
	if thr := m.Throughput(); math.Abs(thr-float64(m.Completions)/10) > 1e-9 {
		t.Fatalf("Throughput = %v", thr)
	}
	// Offered load stays constant through respawn.
	if got := m.Sched.TotalTasks(); got != 8 {
		t.Fatalf("tasks after respawn = %d, want 8", got)
	}
}

func TestInteractiveTasksSurviveBlocking(t *testing.T) {
	cfg := base()
	m := MustNew(cfg)
	m.SpawnN(catalog().Bash(), 4)
	m.SpawnN(catalog().Sshd(), 4)
	m.Run(30000)
	// All 8 tasks still alive (blocked or runnable).
	alive := m.Sched.TotalTasks() + len(m.sleepers)
	if alive != 8 {
		t.Fatalf("alive tasks = %d, want 8", alive)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, float64, int64) {
		cfg := base()
		cfg.Seed = 42
		cfg.RespawnFinished = true
		cfg.ThrottleEnabled = true
		cfg.Scope = ThrottlePerLogical
		cfg.PackageMaxPowerW = []float64{50}
		m := MustNew(cfg)
		c := catalog()
		m.SpawnN(workload.WithWork(c.Bitcnts(), 3000), 6)
		m.SpawnN(workload.WithWork(c.Memrw(), 3000), 6)
		m.Run(30000)
		return m.Completions, m.AvgThrottledFrac(), m.MigrationCount()
	}
	c1, f1, g1 := run()
	c2, f2, g2 := run()
	if c1 != c2 || f1 != f2 || g1 != g2 {
		t.Fatalf("nondeterministic: (%d,%v,%d) vs (%d,%v,%d)", c1, f1, g1, c2, f2, g2)
	}
}

func TestResetStats(t *testing.T) {
	cfg := base()
	cfg.RespawnFinished = true
	m := MustNew(cfg)
	m.SpawnN(workload.WithWork(catalog().Pushpop(), 1000), 8)
	m.Run(5000)
	if m.Completions == 0 {
		t.Fatal("no completions before reset")
	}
	m.ResetStats()
	if m.Completions != 0 || m.MigrationCount() != 0 || m.Throughput() != 0 {
		t.Fatal("ResetStats incomplete")
	}
	m.Run(5000)
	if m.Completions == 0 {
		t.Fatal("no completions after reset")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := base()
	bad.PackageProps = DefaultPackageProps(3) // wrong count
	if _, err := New(bad); err == nil {
		t.Error("wrong PackageProps count accepted")
	}
	bad2 := base()
	bad2.PackageMaxPowerW = []float64{60, 60, 60}
	if _, err := New(bad2); err == nil {
		t.Error("wrong budget count accepted")
	}
	// Periods beyond the deadline tables' bound are rejected; ≤ 0
	// still disables the class.
	for _, c := range []struct {
		why    string
		mutate func(cfg *Config)
	}{
		{"balance period", func(cfg *Config) { cfg.Sched.BalancePeriodMS = sched.MaxPeriodMS + 1 }},
		{"hot-check period", func(cfg *Config) { cfg.Sched.HotCheckPeriodMS = sched.MaxPeriodMS + 0.5 }},
		{"DVFS evaluation period", func(cfg *Config) {
			cfg.DVFS = &dvfs.Config{Governor: "ondemand", EvalPeriodMS: sched.MaxPeriodMS + 1}
		}},
	} {
		cfg := base()
		c.mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s above %d ms accepted", c.why, sched.MaxPeriodMS)
		}
	}
	ok := base()
	ok.Sched.BalancePeriodMS, ok.Sched.HotCheckPeriodMS = sched.MaxPeriodMS, 0
	ok.DVFS = &dvfs.Config{Governor: "ondemand", EvalPeriodMS: sched.MaxPeriodMS}
	if _, err := New(ok); err != nil {
		t.Errorf("periods at the bound (or disabled) rejected: %v", err)
	}
}

func TestLimitTempDerivesBudgets(t *testing.T) {
	cfg := base()
	cfg.PackageMaxPowerW = nil
	cfg.LimitTempC = 38
	m := MustNew(cfg)
	// 38 °C with R = 0.2, ambient 25 → (38−25)/0.2 = 65 W.
	if b := m.PackageBudget(0); math.Abs(b-65) > 1e-9 {
		t.Fatalf("derived budget = %v, want 65", b)
	}
}

func TestSMTContentionSlowsProgress(t *testing.T) {
	// Two finite tasks on one SMT package take longer than one alone.
	solo := func() int64 {
		cfg := Config{
			Layout: topology.Layout{Nodes: 1, PackagesPerNode: 1, ThreadsPerPackage: 2},
			Sched:  sched.BaselineConfig(),
			Seed:   5,
		}
		m := MustNew(cfg)
		m.Spawn(workload.WithWork(catalog().Aluadd(), 5000))
		for m.Completions == 0 && m.NowMS() < 60000 {
			m.Run(100)
		}
		return m.NowMS()
	}()
	paired := func() int64 {
		cfg := Config{
			Layout: topology.Layout{Nodes: 1, PackagesPerNode: 1, ThreadsPerPackage: 2},
			Sched:  sched.BaselineConfig(),
			Seed:   5,
		}
		m := MustNew(cfg)
		m.Spawn(workload.WithWork(catalog().Aluadd(), 5000))
		m.Spawn(workload.WithWork(catalog().Aluadd(), 5000))
		for m.Completions < 2 && m.NowMS() < 60000 {
			m.Run(100)
		}
		return m.NowMS()
	}()
	// Each thread runs at ~0.62 speed → ~1.6× the solo time, but both
	// finish concurrently: total time ≈ 5000/0.62 ≈ 8065 vs 5000.
	if paired <= solo+2000 {
		t.Fatalf("SMT contention missing: solo %d ms, paired %d ms", solo, paired)
	}
}

// ---- §7 CMP extension ----

func TestCMPCoreCouplingHeatsNeighbors(t *testing.T) {
	// One hot task pinned on core 0 of a dual-core package: its idle
	// neighbour core must end up warmer than the cores of the idle
	// package, by exactly the coupling share.
	pol := sched.BaselineConfig()
	cfg := Config{
		Layout:       topology.CMP2x2(),
		Sched:        pol,
		Seed:         1,
		PackageProps: []energyProps{props01(), props01()},
	}
	m := MustNew(cfg)
	m.Spawn(catalog().Bitcnts())
	m.Run(120000)
	hot, neighbor := m.CoreTemp(0), m.CoreTemp(1)
	idle := m.CoreTemp(2)
	if hot <= neighbor {
		t.Fatalf("hot core %v not hotter than neighbour %v", hot, neighbor)
	}
	if neighbor <= idle+0.5 {
		t.Fatalf("coupling missing: neighbour %v vs idle package %v", neighbor, idle)
	}
}

func TestCMPPerCoreThrottling(t *testing.T) {
	cfg := Config{
		Layout:           topology.CMP2x2(),
		Sched:            sched.BaselineConfig(),
		Seed:             2,
		PackageProps:     []energyProps{props01(), props01()},
		PackageMaxPowerW: []float64{100}, // core budget ≈ 37 W
		ThrottleEnabled:  true,
		Scope:            ThrottlePerCore,
	}
	m := MustNew(cfg)
	task := m.Spawn(catalog().Bitcnts())
	m.Run(120000)
	// Only the task's core throttles.
	cpu := task.CPU
	if f := m.ThrottledFrac(cpu); f < 0.2 {
		t.Fatalf("hot core throttled %.0f%%, want substantial", f*100)
	}
	for c := topology.CPUID(0); c < 4; c++ {
		if c != cpu && m.ThrottledFrac(c) > 0.01 {
			t.Fatalf("idle core %d throttled %.0f%%", c, m.ThrottledFrac(c)*100)
		}
	}
}

func TestCMPHotMigrationEliminatesThrottling(t *testing.T) {
	cfg := Config{
		Layout:           topology.CMP2x2(),
		Sched:            sched.DefaultConfig(),
		Seed:             3,
		PackageProps:     []energyProps{props01(), props01()},
		PackageMaxPowerW: []float64{100},
		ThrottleEnabled:  true,
		Scope:            ThrottlePerCore,
	}
	m := MustNew(cfg)
	m.Spawn(catalog().Bitcnts())
	m.Run(180000)
	if f := m.AvgThrottledFrac(); f > 0.03 {
		t.Fatalf("throttled %.1f%% despite CMP hot migration", f*100)
	}
	if m.MigrationCount() < 5 {
		t.Fatalf("migrations = %d, want rotation", m.MigrationCount())
	}
	// At least one migration must stay within a chip (the mc level).
	intra := 0
	for _, ev := range m.Migrations {
		if cfg.Layout.SamePackage(ev.From, ev.To) {
			intra++
		}
	}
	if intra == 0 {
		t.Fatal("no intra-chip migrations: mc level unused")
	}
}

// energyProps/props01 keep the CMP test table compact.
type energyProps = thermal.Properties

func props01() thermal.Properties {
	return thermal.Properties{R: 0.1, C: 150, AmbientC: 25}
}
