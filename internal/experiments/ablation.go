package experiments

import (
	"fmt"
	"strings"

	"energysched/internal/machine"
	"energysched/internal/sched"
	"energysched/internal/topology"
)

// AblationResult summarizes one balancer-metric ablation run: the §6.1
// mixed workload under one metric mode, reporting the migration count
// (ping-pong shows up as churn) and the thermal band (over-balancing
// shows up as oscillation that fails to settle).
type AblationResult struct {
	Mode       string
	Migrations int64
	SpreadW    float64
	MaxW       float64
}

// AblationBalancerMetrics runs the §4.3 design-choice ablation: the
// same workload balanced with (a) the paper's combined metrics, (b)
// runqueue power only, and (c) thermal power only. The paper's claims:
// power-only "easily lead[s to] ping-pong effects"; thermal-only
// "tend[s] to over-balance". Both pathologies appear as a migration
// count far above the combined policy's.
func (rc RunConfig) AblationBalancerMetrics(seed uint64, durationMS int64) []AblationResult {
	modes := []struct {
		name   string
		metric sched.BalanceMetric
	}{
		{"both (paper)", sched.MetricBoth},
		{"power only", sched.MetricPowerOnly},
		{"thermal only", sched.MetricThermalOnly},
	}
	var out []AblationResult
	for _, mode := range modes {
		pol := sched.DefaultConfig()
		pol.Metric = mode.metric
		layout := xseriesNoSMT()
		m := machine.MustNew(machine.Config{
			Layout:           layout,
			Sched:            pol,
			Seed:             seed,
			PackageProps:     UniformProps(layout.NumPackages(), 0.2),
			PackageMaxPowerW: []float64{60},
			MonitorPeriodMS:  1000,
		})
		mixedWorkload(m, 3, 0)
		m.Run(durationMS)
		lo, hi, max := 1e18, -1e18, -1e18
		for c := 0; c < layout.NumLogical(); c++ {
			s := m.ThermalPowerSeries(topology.CPUID(c))
			tail := s.Tail(0.5)
			if tail < lo {
				lo = tail
			}
			if tail > hi {
				hi = tail
			}
			for i := 60; i < s.Len(); i++ {
				if v := s.At(i); v > max {
					max = v
				}
			}
		}
		out = append(out, AblationResult{
			Mode:       mode.name,
			Migrations: m.MigrationCount(),
			SpreadW:    hi - lo,
			MaxW:       max,
		})
	}
	return out
}

// FormatAblation renders the metric ablation.
func FormatAblation(rows []AblationResult) string {
	var b strings.Builder
	b.WriteString("Balancer metric ablation (§4.3):\n")
	fmt.Fprintf(&b, "%-14s %11s %9s %8s\n", "metrics", "migrations", "spread", "peak")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %11d %8.1fW %7.1fW\n", r.Mode, r.Migrations, r.SpreadW, r.MaxW)
	}
	return b.String()
}

// AblationPlacementResult compares energy-aware initial placement
// against naive placement on the §6.2 short-task workload, where tasks
// finish too quickly for the balancer to fix a bad start ("For tasks
// running only for a short time, placing a task on the right CPU from
// the start is a prerequisite for energy balancing to work at all",
// §4.6).
type AblationPlacementResult struct {
	// GainFullPolicy is the throughput gain of the full energy-aware
	// policy over the baseline.
	GainFullPolicy float64
	// GainPlacementOnly is the gain with §4.6 placement as the sole
	// energy-aware mechanism (no balancing, no hot migration).
	GainPlacementOnly float64
	// GainBalancingOnly is the gain with balancing + hot migration but
	// naive placement.
	GainBalancingOnly float64
}

// AblationPlacement isolates the contribution of each mechanism on the
// §6.2 short-task workload.
func (rc RunConfig) AblationPlacement(seed uint64, measureMS int64) AblationPlacementResult {
	run := func(pol sched.Config) float64 {
		est, err := CalibratedEstimator(seed)
		if err != nil {
			panic(err)
		}
		m := machine.MustNew(machine.Config{
			Layout:          xseriesSMT(),
			Sched:           pol,
			Seed:            seed,
			PackageProps:    ReferenceProps(),
			LimitTempC:      38,
			ThrottleEnabled: true,
			Scope:           machine.ThrottlePerLogical,
			Estimator:       est,
			RespawnFinished: true,
		})
		// Short tasks: each instance runs for ~a quarter second of CPU
		// time — typically gone before the 250 ms balancer ever sees
		// it, as in the §6.2 short-task experiment ("those tasks might
		// terminate prior to being migrated for the first time").
		mixedWorkload(m, 6, 280)
		m.Run(60_000)
		m.ResetStats()
		m.Run(measureMS)
		return m.WorkRate()
	}
	base := run(sched.BaselineConfig())
	full := run(sched.DefaultConfig())

	placeOnly := sched.BaselineConfig()
	placeOnly.EnergyAwarePlacement = true
	pOnly := run(placeOnly)

	balanceOnly := sched.DefaultConfig()
	balanceOnly.EnergyAwarePlacement = false
	bOnly := run(balanceOnly)

	res := AblationPlacementResult{}
	if base > 0 {
		res.GainFullPolicy = full/base - 1
		res.GainPlacementOnly = pOnly/base - 1
		res.GainBalancingOnly = bOnly/base - 1
	}
	return res
}
