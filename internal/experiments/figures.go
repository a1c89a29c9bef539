package experiments

import (
	"energysched/internal/machine"
	"energysched/internal/profile"
	"energysched/internal/sched"
	"energysched/internal/stats"
	"energysched/internal/thermal"
	"energysched/internal/topology"
	"energysched/internal/workload"
)

// Figure3Result holds the three curves of Fig. 3: the relation between
// temperature, power, and the thermal-power metric for a power step.
type Figure3Result struct {
	Power        *stats.Series // applied power (W)
	Temperature  *stats.Series // RC-model temperature (°C)
	ThermalPower *stats.Series // thermal-power exponential average (W)
}

// Figure3 applies a power step (idle → high → idle) to one processor
// and samples the three quantities once per second, demonstrating that
// thermal power follows temperature's exponential course while keeping
// the dimension of a power (§4.3).
func Figure3() Figure3Result {
	props := thermal.Properties{R: 0.2, C: 75, AmbientC: 25}
	node := thermal.NewNode(props)
	node.TempC = props.SteadyTemp(13.6) // start at the idle equilibrium
	w := thermal.ThermalPowerWeight(props, 1)
	cp := profile.NewCPUPower(60, w, 1, 13.6)

	res := Figure3Result{
		Power:        stats.NewSeries("power", 1),
		Temperature:  stats.NewSeries("temperature", 1),
		ThermalPower: stats.NewSeries("thermal_power", 1),
	}
	phase := []struct {
		watts float64
		secs  int
	}{{13.6, 10}, {61, 60}, {13.6, 60}}
	for _, ph := range phase {
		for s := 0; s < ph.secs; s++ {
			res.Power.Append(ph.watts)
			res.Temperature.Append(node.TempC)
			res.ThermalPower.Append(cp.ThermalPower())
			for ms := 0; ms < 1000; ms++ {
				node.Step(ph.watts, 1)
				cp.AddEnergy(ph.watts/1000, 1)
			}
		}
	}
	return res
}

// ThermalTraceResult holds the per-CPU thermal power curves of Fig. 6
// (energy balancing disabled) or Fig. 7 (enabled), plus summary
// statistics of the band of curves.
type ThermalTraceResult struct {
	Series []*stats.Series
	// SpreadW is the steady-state width of the band: the spread
	// between the hottest and coolest CPU's tail-average thermal
	// power.
	SpreadW float64
	// MaxW is the maximum thermal power any CPU reached after warm-up.
	MaxW float64
	// Migrations counts task migrations during the run.
	Migrations int64
}

// ThermalTraceConfig parameterizes Figures 6 and 7.
type ThermalTraceConfig struct {
	Seed       uint64
	DurationMS int64
	SMT        bool
	PerProgram int
	// EnergyBalancing selects Fig. 6 (false) or Fig. 7 (true).
	EnergyBalancing bool
}

// DefaultThermalTraceConfig mirrors §6.1: SMT off, 18 endless tasks
// (three of each program), 800 s, 60 W max power everywhere, no
// throttling — the run only observes thermal power.
func DefaultThermalTraceConfig(enabled bool) ThermalTraceConfig {
	return ThermalTraceConfig{Seed: 61, DurationMS: 800_000, SMT: false, PerProgram: 3, EnergyBalancing: enabled}
}

// ThermalTrace runs the §6.1 energy-balancing experiment and samples
// each CPU's thermal power once per second.
func (rc RunConfig) ThermalTrace(cfg ThermalTraceConfig) ThermalTraceResult {
	layout := xseriesNoSMT()
	if cfg.SMT {
		layout = xseriesSMT()
	}
	pol := sched.BaselineConfig()
	if cfg.EnergyBalancing {
		pol = sched.DefaultConfig()
	}
	m := machine.MustNew(machine.Config{
		Layout:           layout,
		Sched:            pol,
		Seed:             cfg.Seed,
		PackageProps:     UniformProps(layout.NumPackages(), 0.2),
		PackageMaxPowerW: []float64{60}, // §6.1: "we set the maximum power of all CPUs to 60 W"
		MonitorPeriodMS:  1000,
	})
	mixedWorkload(m, cfg.PerProgram, 0)
	m.Run(cfg.DurationMS)

	res := ThermalTraceResult{Migrations: m.MigrationCount()}
	lo, hi, max := 1e18, -1e18, -1e18
	for c := 0; c < layout.NumLogical(); c++ {
		s := m.ThermalPowerSeries(topology.CPUID(c))
		res.Series = append(res.Series, s)
		tail := s.Tail(0.5)
		if tail < lo {
			lo = tail
		}
		if tail > hi {
			hi = tail
		}
		// Peak after the initial exponential rise (skip first 60 s).
		for i := 60; i < s.Len(); i++ {
			if v := s.At(i); v > max {
				max = v
			}
		}
	}
	res.SpreadW = hi - lo
	res.MaxW = max
	return res
}

// MigrationCountsResult reproduces the §6.1 migration accounting: the
// average number of migrations during a 15-minute run of the mixed
// workload, with energy balancing disabled and enabled, SMT off and on.
type MigrationCountsResult struct {
	SMTOffDisabled int64
	SMTOffEnabled  int64
	SMTOnDisabled  int64
	SMTOnEnabled   int64
}

// MigrationCounts runs the four §6.1 configurations. durationMS is the
// run length (the paper uses 15 minutes).
func (rc RunConfig) MigrationCounts(seed uint64, durationMS int64) (MigrationCountsResult, error) {
	run := func(smt, enabled bool) int64 {
		cfg := ThermalTraceConfig{Seed: seed, DurationMS: durationMS, SMT: smt, EnergyBalancing: enabled, PerProgram: 3}
		if smt {
			cfg.PerProgram = 6 // §6.1: "we started each program six times, for a total of 36 tasks"
		}
		return rc.ThermalTrace(cfg).Migrations
	}
	grid := []struct{ smt, enabled bool }{{false, false}, {false, true}, {true, false}, {true, true}}
	counts := make([]int64, len(grid))
	if err := rc.ForEach(len(grid), func(i int) { counts[i] = run(grid[i].smt, grid[i].enabled) }); err != nil {
		return MigrationCountsResult{}, err
	}
	return MigrationCountsResult{
		SMTOffDisabled: counts[0],
		SMTOffEnabled:  counts[1],
		SMTOnDisabled:  counts[2],
		SMTOnEnabled:   counts[3],
	}, nil
}

// Figure8Point is one bar of Fig. 8: a workload mix and the throughput
// increase from energy-aware scheduling.
type Figure8Point struct {
	Memrw, Pushpop, Bitcnts int
	GainPct                 float64
}

// Figure8Config parameterizes the homogeneity sweep.
type Figure8Config struct {
	Seed       uint64
	WarmupMS   int64
	MeasureMS  int64
	TaskWorkMS float64
	// LimitTempC is the artificial temperature limit. The SMT-off runs
	// dissipate roughly 20 % less per package than the SMT-on runs of
	// §6.2, so the limit sits slightly lower to create comparable
	// throttling pressure (the paper likewise picks an artificial
	// limit below the workload's 45 °C peak).
	LimitTempC float64
}

// DefaultFigure8Config uses the §6.3 setup: SMT off, 18 tasks.
func DefaultFigure8Config() Figure8Config {
	return Figure8Config{Seed: 63, WarmupMS: 60_000, MeasureMS: 240_000, TaskWorkMS: 12_000, LimitTempC: 36.5}
}

// Figure8Scenarios returns the paper's mixes: 9/0/9, 8/2/8, …, 0/18/0
// (#memrw/#pushpop/#bitcnts).
func Figure8Scenarios() []Figure8Point {
	var out []Figure8Point
	for p := 0; p <= 18; p += 2 {
		h := (18 - p) / 2
		out = append(out, Figure8Point{Memrw: h, Pushpop: p, Bitcnts: h})
	}
	return out
}

// Figure8 measures, for each homogeneity scenario, the throughput
// increase of energy-aware scheduling over the baseline (§6.3): the
// benefit is largest for heterogeneous mixes and vanishes for the
// homogeneous one.
func (rc RunConfig) Figure8(cfg Figure8Config) ([]Figure8Point, error) {
	points := Figure8Scenarios()
	cat := Catalog()
	err := rc.ForEach(len(points), func(i int) {
		pt := &points[i]
		run := func(pol sched.Config) *machine.Machine {
			est, err := CalibratedEstimator(cfg.Seed)
			if err != nil {
				panic(err)
			}
			m := machine.MustNew(machine.Config{
				Layout:          xseriesNoSMT(),
				Sched:           pol,
				Seed:            cfg.Seed + uint64(i),
				PackageProps:    ReferenceProps(),
				LimitTempC:      cfg.LimitTempC,
				ThrottleEnabled: true,
				Scope:           machine.ThrottlePerLogical,
				Estimator:       est,
				RespawnFinished: true,
			})
			m.SpawnN(workload.WithWork(cat.Memrw(), cfg.TaskWorkMS), pt.Memrw)
			m.SpawnN(workload.WithWork(cat.Pushpop(), cfg.TaskWorkMS), pt.Pushpop)
			m.SpawnN(workload.WithWork(cat.Bitcnts(), cfg.TaskWorkMS), pt.Bitcnts)
			m.Run(cfg.WarmupMS)
			m.ResetStats()
			m.Run(cfg.MeasureMS)
			return m
		}
		off, on := policyPair(run)
		if off.WorkRate() > 0 {
			pt.GainPct = (on.WorkRate()/off.WorkRate() - 1) * 100
		}
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}
