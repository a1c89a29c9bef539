package experiments

import (
	"fmt"
	"strings"

	"energysched/internal/machine"
	"energysched/internal/sched"
	"energysched/internal/thermal"
	"energysched/internal/topology"
)

// Sensitivity sweeps: the paper fixes several constants it does not
// publish (the balancing hysteresis margins, the hot-migration
// destination gap) and one the hardware fixes for it (the heat sink's
// time constant). These sweeps map how the headline behaviours depend
// on those choices — the quantitative backing for the tuning values in
// sched.DefaultConfig.

// HysteresisPoint is one row of the hysteresis sweep.
type HysteresisPoint struct {
	// MarginRatio is the value used for both §4.4 margins.
	MarginRatio float64
	// Migrations over the run, and the steady thermal band spread.
	Migrations int64
	SpreadW    float64
}

// SweepHysteresis runs the §6.1 mixed workload under energy balancing
// with varying hysteresis margins. Small margins buy a marginally
// tighter band at the cost of steeply more migrations; large margins
// stop balancing entirely.
func (rc RunConfig) SweepHysteresis(seed uint64, durationMS int64) ([]HysteresisPoint, error) {
	margins := []float64{0, 0.01, 0.03, 0.06, 0.12, 0.25}
	out := make([]HysteresisPoint, len(margins))
	err := rc.ForEach(len(margins), func(i int) {
		pol := sched.DefaultConfig()
		pol.ThermalRatioMargin = margins[i]
		pol.RQRatioMargin = margins[i]
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
		lo, hi := 1e18, -1e18
		for c := 0; c < layout.NumLogical(); c++ {
			tail := m.ThermalPowerSeries(topology.CPUID(c)).Tail(0.5)
			if tail < lo {
				lo = tail
			}
			if tail > hi {
				hi = tail
			}
		}
		out[i] = HysteresisPoint{MarginRatio: margins[i], Migrations: m.MigrationCount(), SpreadW: hi - lo}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FormatHysteresis renders the sweep.
func FormatHysteresis(points []HysteresisPoint) string {
	var b strings.Builder
	b.WriteString("Hysteresis-margin sweep (§4.4 margins, mixed workload):\n")
	fmt.Fprintf(&b, "%8s %11s %9s\n", "margin", "migrations", "spread")
	for _, p := range points {
		fmt.Fprintf(&b, "%8.2f %11d %8.1fW\n", p.MarginRatio, p.Migrations, p.SpreadW)
	}
	return b.String()
}

// TimeConstantPoint is one row of the heat-sink time-constant sweep.
type TimeConstantPoint struct {
	// TauS is the per-package RC time constant.
	TauS float64
	// HopPeriodS is the mean interval between hot-task migrations —
	// §6.4 observes ≈ 10 s for the real machine's sink.
	HopPeriodS float64
	// Migrations over the run.
	Migrations int64
}

// SweepTimeConstant reruns the Fig. 9 scenario with heat sinks of
// different time constants: the migration period scales with τ, because
// the trigger is the thermal-power metric crossing the budget and the
// metric is calibrated to the sink's exponential (§4.3).
func (rc RunConfig) SweepTimeConstant(seed uint64, durationMS int64) ([]TimeConstantPoint, error) {
	taus := []float64{5, 10, 15, 30, 60}
	out := make([]TimeConstantPoint, len(taus))
	err := rc.ForEach(len(taus), func(i int) {
		tau := taus[i]
		props := make([]thermal.Properties, 8)
		for p := range props {
			props[p] = thermal.Properties{R: 0.2, C: tau / 0.2, AmbientC: 25}
		}
		m := machine.MustNew(machine.Config{
			Layout:           xseriesSMT(),
			Sched:            sched.DefaultConfig(),
			Seed:             seed,
			PackageProps:     props,
			PackageMaxPowerW: []float64{40},
			ThrottleEnabled:  true,
			Scope:            machine.ThrottlePerPackage,
		})
		m.Spawn(Catalog().Bitcnts())
		m.Run(durationMS)
		pt := TimeConstantPoint{TauS: tau, Migrations: m.MigrationCount()}
		if n := len(m.Migrations); n >= 2 {
			first := m.Migrations[0].TimeMS
			last := m.Migrations[n-1].TimeMS
			pt.HopPeriodS = float64(last-first) / float64(n-1) / 1000
		}
		out[i] = pt
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FormatTimeConstant renders the sweep.
func FormatTimeConstant(points []TimeConstantPoint) string {
	var b strings.Builder
	b.WriteString("Heat-sink time-constant sweep (Fig. 9 scenario):\n")
	fmt.Fprintf(&b, "%8s %12s %11s\n", "tau", "hop period", "migrations")
	for _, p := range points {
		fmt.Fprintf(&b, "%6.0f s %10.1f s %11d\n", p.TauS, p.HopPeriodS, p.Migrations)
	}
	return b.String()
}

// DestGapPoint is one row of the destination-gap sweep.
type DestGapPoint struct {
	// GapW is the §4.5 "considerably cooler" threshold.
	GapW float64
	// Migrations and throttled fraction over the run.
	Migrations    int64
	ThrottledFrac float64
}

// SweepDestGap reruns the Fig. 9 scenario with varying destination
// gaps. The migration rate is insensitive across a wide range — the
// §4.5 *trigger* (thermal power reaching the budget) gates migrations,
// and the cooling rotation keeps plenty of gap available — until the
// gap exceeds what a fully cooled package can offer, at which point
// migration stops entirely and throttling returns. The default (12 W)
// sits safely inside the flat region.
func (rc RunConfig) SweepDestGap(seed uint64, durationMS int64) ([]DestGapPoint, error) {
	gaps := []float64{1, 4, 8, 12, 20, 30, 45}
	out := make([]DestGapPoint, len(gaps))
	err := rc.ForEach(len(gaps), func(i int) {
		pol := sched.DefaultConfig()
		pol.HotDestGapW = gaps[i]
		m := machine.MustNew(machine.Config{
			Layout:           xseriesSMT(),
			Sched:            pol,
			Seed:             seed,
			PackageProps:     UniformProps(8, 0.2),
			PackageMaxPowerW: []float64{40},
			ThrottleEnabled:  true,
			Scope:            machine.ThrottlePerPackage,
		})
		m.Spawn(Catalog().Bitcnts())
		m.Run(durationMS)
		out[i] = DestGapPoint{GapW: gaps[i], Migrations: m.MigrationCount(), ThrottledFrac: m.AvgThrottledFrac()}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FormatDestGap renders the sweep.
func FormatDestGap(points []DestGapPoint) string {
	var b strings.Builder
	b.WriteString("Hot-migration destination-gap sweep (Fig. 9 scenario):\n")
	fmt.Fprintf(&b, "%8s %11s %10s\n", "gap", "migrations", "throttled")
	for _, p := range points {
		fmt.Fprintf(&b, "%6.0fW %11d %9.1f%%\n", p.GapW, p.Migrations, p.ThrottledFrac*100)
	}
	return b.String()
}
