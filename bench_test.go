// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6). Each benchmark runs one full experiment per
// iteration and reports the headline quantity of the corresponding
// table/figure as a custom metric, so `go test -bench=.` both exercises
// the simulator end-to-end and prints the reproduced results.
//
// Durations are moderately shortened against the paper's 15-minute runs
// to keep a full -bench=. pass in the minutes range; EXPERIMENTS.md
// records a full-length pass.
package energysched_test

import (
	"testing"
	"time"

	"energysched"
	"energysched/internal/experiments"
)

// rep runs every benchmark's experiment under the default RunConfig.
var rep energysched.Reproducer

// BenchmarkTable1SuccessiveTimeslices regenerates Table 1: the maximum
// and average change in power between successive timeslices. Reported
// metric: bzip2's values (the paper's most variable program).
func BenchmarkTable1SuccessiveTimeslices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := rep.Table1(2006, 800)
		for _, r := range rows {
			if r.Program == "bzip2" {
				b.ReportMetric(r.MaxPct, "bzip2-max-%")
				b.ReportMetric(r.AvgPct, "bzip2-avg-%")
			}
		}
	}
}

// BenchmarkTable2ProgramPowers regenerates Table 2: the power of each
// test program, measured with the calibrated estimator. Reported
// metric: bitcnts power (paper: 61 W).
func BenchmarkTable2ProgramPowers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := rep.Table2(2006, 60_000)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Program == "bitcnts" {
				b.ReportMetric((r.MinWatts+r.MaxWatts)/2, "bitcnts-W")
			}
		}
	}
}

// BenchmarkTable3ThrottlePercent regenerates Table 3: per-CPU
// throttling percentages under the 38 °C limit with and without energy
// balancing (paper: average 15.2 % → 10.2 %, throughput +4.7 %).
func BenchmarkTable3ThrottlePercent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultTable3Config()
		cfg.WarmupMS, cfg.MeasureMS = 60_000, 240_000
		res, err := rep.RC.Table3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AvgDisabled*100, "avg-disabled-%")
		b.ReportMetric(res.AvgEnabled*100, "avg-enabled-%")
		b.ReportMetric(res.ThroughputGain*100, "throughput-gain-%")
	}
}

// BenchmarkFigure3ThermalPower regenerates Fig. 3: the relation between
// temperature, power, and thermal power for a power step.
func BenchmarkFigure3ThermalPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := rep.Figure3()
		b.ReportMetric(res.ThermalPower.Max(), "peak-thermal-W")
	}
}

// BenchmarkFigure6BalancingDisabled regenerates Fig. 6: the thermal
// power of the eight CPUs under the mixed workload with energy
// balancing disabled — the curves diverge and cross the 50 W line.
func BenchmarkFigure6BalancingDisabled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultThermalTraceConfig(false)
		cfg.DurationMS = 400_000
		res := rep.RC.ThermalTrace(cfg)
		b.ReportMetric(res.SpreadW, "band-spread-W")
		b.ReportMetric(res.MaxW, "peak-W")
	}
}

// BenchmarkFigure7BalancingEnabled regenerates Fig. 7: with energy
// balancing the band of curves stays narrow and below the limit.
func BenchmarkFigure7BalancingEnabled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultThermalTraceConfig(true)
		cfg.DurationMS = 400_000
		res := rep.RC.ThermalTrace(cfg)
		b.ReportMetric(res.SpreadW, "band-spread-W")
		b.ReportMetric(res.MaxW, "peak-W")
		b.ReportMetric(float64(res.Migrations), "migrations")
	}
}

// BenchmarkMigrationCounts regenerates the §6.1 migration accounting
// (paper, 15-minute runs: 3.3 → 32 without/with balancing SMT off,
// 9.8 → 87 SMT on).
func BenchmarkMigrationCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mc, err := rep.MigrationCounts(61, 300_000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(mc.SMTOffEnabled), "smtoff-enabled")
		b.ReportMetric(float64(mc.SMTOnEnabled), "smton-enabled")
	}
}

// BenchmarkFigure8WorkloadMix regenerates Fig. 8: throughput gain vs
// workload homogeneity (paper: peak 12.3 %, zero for the homogeneous
// mix).
func BenchmarkFigure8WorkloadMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultFigure8Config()
		cfg.WarmupMS, cfg.MeasureMS = 40_000, 160_000
		points, err := rep.RC.Figure8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		peak := 0.0
		for _, p := range points {
			if p.GainPct > peak {
				peak = p.GainPct
			}
		}
		b.ReportMetric(peak, "peak-gain-%")
		b.ReportMetric(points[len(points)-1].GainPct, "homogeneous-gain-%")
	}
}

// BenchmarkFigure9HotTaskTrace regenerates Fig. 9: a single hot task
// hopping round-robin over its node's packages every ~10 s, never to a
// sibling, never across the node boundary.
func BenchmarkFigure9HotTaskTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := rep.Figure9(7, 200_000)
		b.ReportMetric(float64(len(res.Migrations)), "migrations")
		b.ReportMetric(float64(res.CrossNode), "cross-node")
		b.ReportMetric(res.ThrottledFrac*100, "throttled-%")
	}
}

// BenchmarkFigure10MultiTask regenerates Fig. 10: throughput gain vs
// number of hot tasks (paper: ~76 % at 1–2 tasks, ~0 at 8).
func BenchmarkFigure10MultiTask(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultFigure10Config()
		cfg.WarmupMS, cfg.MeasureMS = 40_000, 160_000
		points, err := rep.RC.Figure10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[0].GainPct, "gain-1-task-%")
		b.ReportMetric(points[7].GainPct, "gain-8-tasks-%")
	}
}

// BenchmarkHotTaskSpeedup regenerates the §6.4 headline numbers: the
// execution-time reduction of one bitcnts task from hot task migration
// at 40 W and 50 W package budgets (paper: −43 % and −21 %).
func BenchmarkHotTaskSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r40 := rep.HotTaskSpeedup(1, 40)
		r50 := rep.HotTaskSpeedup(1, 50)
		b.ReportMetric(r40.TimeReductionPct, "40W-time-reduction-%")
		b.ReportMetric(r50.TimeReductionPct, "50W-time-reduction-%")
	}
}

// BenchmarkAblationBalancerMetrics quantifies the §4.3 design choice:
// migrations under the combined metrics vs runqueue-power-only
// (ping-pong) vs thermal-power-only (over-balancing).
func BenchmarkAblationBalancerMetrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := rep.Ablations(61, 300_000)
		b.ReportMetric(float64(rows[0].Migrations), "both")
		b.ReportMetric(float64(rows[1].Migrations), "power-only")
		b.ReportMetric(float64(rows[2].Migrations), "thermal-only")
	}
}

// BenchmarkAblationPlacement isolates the §4.6 initial-placement
// contribution on the short-task workload.
func BenchmarkAblationPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := rep.RC.AblationPlacement(2006, 180_000)
		b.ReportMetric(p.GainFullPolicy*100, "full-%")
		b.ReportMetric(p.GainPlacementOnly*100, "placement-only-%")
		b.ReportMetric(p.GainBalancingOnly*100, "balancing-only-%")
	}
}

// BenchmarkCMPHotTask regenerates the §7 chip-multiprocessor extension
// experiment: hot task rotation across the cores of dual-core chips.
func BenchmarkCMPHotTask(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := rep.CMP(7, 180_000)
		b.ReportMetric(r.GainPct, "gain-%")
		b.ReportMetric(float64(r.IntraChipHops), "intra-chip-hops")
		b.ReportMetric(r.CoupledTempC-r.IsolatedTempC, "stress-delta-C")
	}
}

// BenchmarkSimulatorTickRate measures raw simulator speed: simulated
// CPU-milliseconds per wall second for the fully loaded 16-way SMT
// machine (a capacity/regression guard, not a paper result).
func BenchmarkSimulatorTickRate(b *testing.B) {
	sys, err := energysched.New(energysched.Options{
		Layout:           energysched.XSeries445(),
		Seed:             1,
		PackageMaxPowerW: []float64{50},
		Throttle:         true,
	})
	if err != nil {
		b.Fatal(err)
	}
	progs := sys.Programs()
	for _, mk := range []func() *energysched.Program{progs.Bitcnts, progs.Memrw, progs.Openssl, progs.Bzip2} {
		sys.SpawnN(mk(), 9)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Run(10 * time.Second) // 10 simulated seconds per iteration
	}
	b.ReportMetric(float64(b.N)*10_000*16/b.Elapsed().Seconds(), "cpu-ms/s")
}

// BenchmarkPolicyComparison quantifies §2.3: CPU throttling vs hot-task
// throttling [24] vs energy-aware scheduling, on throughput and on the
// hot tasks' share of it.
func BenchmarkPolicyComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := rep.PolicyComparison(2006, 240_000)
		b.ReportMetric(r.GainTaskPct(), "task-throttle-gain-%")
		b.ReportMetric(r.GainAwarePct(), "energy-aware-gain-%")
		b.ReportMetric(r.HotShareTask*100, "hot-share-taskthrottle-%")
		b.ReportMetric(r.HotShareAware*100, "hot-share-aware-%")
	}
}

// BenchmarkUnitAware regenerates the §7 multiple-temperature extension:
// unit-aware balancing of equal-power integer/FP tasks.
func BenchmarkUnitAware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := rep.UnitAware(7, 180_000)
		b.ReportMetric(r.MaxUnitTempBlind-r.MaxUnitTempAware, "hotspot-delta-C")
		b.ReportMetric(r.GainPct, "gain-%")
	}
}

// BenchmarkSweeps regenerates the sensitivity sweeps behind the
// DefaultConfig tuning constants.
func BenchmarkSweeps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hys, err := rep.RC.SweepHysteresis(61, 200_000)
		if err != nil {
			b.Fatal(err)
		}
		tau, err := rep.RC.SweepTimeConstant(7, 200_000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(hys[0].Migrations), "migrations-margin0")
		b.ReportMetric(float64(hys[3].Migrations), "migrations-default")
		b.ReportMetric(tau[2].HopPeriodS, "hop-period-tau15-s")
	}
}
