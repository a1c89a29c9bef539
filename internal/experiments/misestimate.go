package experiments

import (
	"fmt"
	"strings"

	"energysched/internal/faults"
	"energysched/internal/machine"
	"energysched/internal/sched"
	"energysched/internal/thermal"
	"energysched/internal/workload"
)

// This file runs the robustness ablation the fault-injection layer
// exists for: what does a mis-calibrated estimator cost, and how much
// of that cost do online recalibration and the conservative fallback
// recover? The throttle enforces its power budget through *estimated*
// power (§3.2/§6.2), so an estimator that under-reports lets true
// power — and temperature — sail past the limit; the table quantifies
// the overshoot and what each defense buys back.

// MisestimateRow is one (mis-calibration magnitude × defense) outcome.
type MisestimateRow struct {
	// Scale is the factor applied to every estimator weight (1 = well
	// calibrated; 0.6 = estimator under-reports by 40 %).
	Scale float64
	// Variant names the defense: "trust-blindly" (no recalibration, no
	// fallback), "recal", "fallback", or "recal+fallback".
	Variant string
	// MakespanMS is the time to finish the fixed work.
	MakespanMS int64
	// EnergyJ is the machine's true energy over the makespan.
	EnergyJ float64
	// PeakTempC is the hottest core temperature observed, and
	// TempExcessC its overshoot above the budget's steady temperature
	// (0 for a perfectly enforced budget at equilibrium).
	PeakTempC   float64
	TempExcessC float64
	// EstErrJ is the accumulated |estimated − true| energy.
	EstErrJ float64
	// Recals counts adaptive weight updates; FallbackTicks the
	// CPU-milliseconds spent under the conservative throttle limits.
	Recals        int64
	FallbackTicks int64
	// DNF marks a run the safety cap ended before the work finished.
	DNF bool
}

// MisestimateConfig parameterizes the ablation.
type MisestimateConfig struct {
	Seed uint64
	// BudgetW is the per-package power budget the throttle enforces.
	BudgetW float64
	// WorkMS is the fixed work per task.
	WorkMS float64
	// Tasks is the number of hot (bitcnts) tasks.
	Tasks int
	// Scales are the weight mis-calibration magnitudes to sweep.
	Scales []float64
}

// misestimateProps returns the ablation machine's thermal properties:
// the usual R = 0.25 °C/W heat sink but a τ = 5 s time constant, so
// temperatures reach equilibrium — and a mis-enforced budget shows up
// as overshoot — within even the -quick run length. With the default
// 45 W budget the perfectly-enforced steady temperature is
// 25 + 0.25·45 ≈ 36.2 °C.
func misestimateProps(n int) []thermal.Properties {
	props := make([]thermal.Properties, n)
	for i := range props {
		props[i] = thermal.Properties{R: 0.25, C: 5 / 0.25, AmbientC: 25}
	}
	return props
}

// DefaultMisestimateConfig sweeps calibrated → badly under-reporting.
// Eight hot tasks saturate every package, so the budget genuinely
// binds: a calibrated estimator duty-cycles each CPU, and every
// percent of under-reporting converts directly into overshoot.
func DefaultMisestimateConfig() MisestimateConfig {
	return MisestimateConfig{
		Seed:    2006,
		BudgetW: 45,
		WorkMS:  60_000,
		Tasks:   8,
		Scales:  []float64{1.0, 0.8, 0.6, 0.4},
	}
}

// MisestimateResult is the ablation table.
type MisestimateResult struct {
	Cfg  MisestimateConfig
	Rows []MisestimateRow
}

// misestimateVariants builds the fault schedule of each defense for
// one mis-calibration scale. All variants share the same residual
// window so their windows align; "trust-blindly" simply never acts on
// it (rate 0, no fallback thresholds).
func misestimateVariants(scale float64) []struct {
	name string
	spec faults.Spec
} {
	base := faults.Spec{
		WeightScale:   []float64{scale},
		RecalPeriodMS: 250,
	}
	recal := base
	recal.RecalRate = 0.2
	recal.RecalWarmup = 1
	fallback := base
	fallback.FallbackResidualW = 8
	fallback.FallbackAfter = 2
	fallback.FallbackRecovery = 4
	fallback.FallbackScale = 0.5
	both := recal
	both.FallbackResidualW = 8
	both.FallbackAfter = 2
	both.FallbackRecovery = 4
	both.FallbackScale = 0.5
	return []struct {
		name string
		spec faults.Spec
	}{
		{"trust-blindly", base},
		{"recal", recal},
		{"fallback", fallback},
		{"recal+fallback", both},
	}
}

// Misestimate runs the ablation: the §6.1 mixed workload with fixed
// work, a per-package budget enforced by estimated power, and the
// estimator's weights scaled down by each magnitude. For every scale
// it compares trusting the bad estimator blindly against recalibrating
// from the thermal-diode residual, falling back to conservative
// limits, and both combined.
func (rc RunConfig) Misestimate(cfg MisestimateConfig) MisestimateResult {
	run := func(scale float64, variant string, spec faults.Spec) MisestimateRow {
		m := machine.MustNew(machine.Config{
			Layout:           xseriesNoSMT(),
			Sched:            sched.DefaultConfig(),
			Seed:             cfg.Seed,
			PackageProps:     misestimateProps(8),
			PackageMaxPowerW: []float64{cfg.BudgetW},
			ThrottleEnabled:  true,
			Scope:            machine.ThrottlePerPackage,
			MonitorPeriodMS:  500,
			Faults:           &spec,
		})
		for i := 0; i < cfg.Tasks; i++ {
			m.Spawn(workload.WithWork(Catalog().Bitcnts(), cfg.WorkMS))
		}
		total := int64(cfg.Tasks)
		for m.Completions < total {
			m.Run(10)
			if m.NowMS() > int64(cfg.WorkMS)*50 {
				break
			}
		}
		row := MisestimateRow{
			Scale:         scale,
			Variant:       variant,
			DNF:           m.Completions < total,
			MakespanMS:    m.NowMS(),
			EnergyJ:       m.TrueEnergyJ,
			PeakTempC:     m.PeakTempC(),
			EstErrJ:       m.EstimationErrJ,
			Recals:        m.RecalibrationCount,
			FallbackTicks: m.FallbackTicks,
		}
		limit := misestimateProps(1)[0].SteadyTemp(cfg.BudgetW)
		if ex := row.PeakTempC - limit; ex > 0 {
			row.TempExcessC = ex
		}
		return row
	}
	res := MisestimateResult{Cfg: cfg}
	for _, scale := range cfg.Scales {
		if scale >= 1 {
			// A calibrated estimator needs no defense: one reference row.
			res.Rows = append(res.Rows, run(scale, "(calibrated)", faults.Spec{
				WeightScale:   []float64{scale},
				RecalPeriodMS: 250,
			}))
			continue
		}
		for _, v := range misestimateVariants(scale) {
			res.Rows = append(res.Rows, run(scale, v.name, v.spec))
		}
	}
	return res
}

// FormatMisestimate renders the ablation table.
func FormatMisestimate(r MisestimateResult) string {
	var b strings.Builder
	limit := misestimateProps(1)[0].SteadyTemp(r.Cfg.BudgetW)
	fmt.Fprintf(&b, "Estimator mis-calibration ablation: %d bitcnts × %.0fs work, %.0f W/package budget (steady limit %.1f °C)\n",
		r.Cfg.Tasks, r.Cfg.WorkMS/1000, r.Cfg.BudgetW, limit)
	fmt.Fprintf(&b, "%-6s %-15s %10s %9s %8s %7s %10s %7s %9s\n",
		"scale", "variant", "makespan", "energy", "peak °C", "excess", "est err", "recals", "fb ticks")
	for _, row := range r.Rows {
		makespan := fmt.Sprintf("%.1fs", float64(row.MakespanMS)/1000)
		if row.DNF {
			makespan = ">" + makespan + " DNF"
		}
		fmt.Fprintf(&b, "%-6.2f %-15s %10s %8.0fJ %8.2f %6.2fC %9.0fJ %7d %9d\n",
			row.Scale, row.Variant, makespan, row.EnergyJ, row.PeakTempC,
			row.TempExcessC, row.EstErrJ, row.Recals, row.FallbackTicks)
	}
	return b.String()
}
