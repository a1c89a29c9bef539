package experiments

import (
	"fmt"
	"strings"

	"energysched/internal/machine"
	"energysched/internal/sched"
	"energysched/internal/topology"
)

// UnitAwareResult is the §7 multiple-temperature experiment: two
// integer-bound and two FP-bound tasks of *identical total power* on a
// two-CPU machine. A scalar energy balancer sees four equal tasks and
// does nothing; the unit-aware balancer mixes one integer and one FP
// task per queue, flattening the functional-unit hotspots.
type UnitAwareResult struct {
	// MaxUnitTempBlind/Aware are the hottest functional-unit
	// temperatures of unthrottled runs after settling (the throttle
	// would otherwise cap both near the limit).
	MaxUnitTempBlind float64
	MaxUnitTempAware float64
	// ThrottledBlind/Aware are the average unit-throttle fractions.
	ThrottledBlind float64
	ThrottledAware float64
	// GainPct is the work-rate gain from unit awareness.
	GainPct float64
	// UnitExchanges counts the §7 exchanges the aware run performed.
	UnitExchanges int64
}

// UnitAware runs the experiment. The workload is spawned so that the
// scalar placement pairs the two integer tasks on one CPU and the two
// FP tasks on the other — the worst case unit-blind scheduling cannot
// detect, because every task draws the same 50 W.
func (rc RunConfig) UnitAware(seed uint64, measureMS int64) UnitAwareResult {
	layout := topology.Layout{Nodes: 1, PackagesPerNode: 2, ThreadsPerPackage: 1}
	run := func(unitAware, throttle bool) (*machine.Machine, int64) {
		pol := sched.DefaultConfig()
		pol.UnitAwareBalancing = unitAware
		cfg := machine.Config{
			Layout:           layout,
			Sched:            pol,
			Seed:             seed,
			PackageProps:     UniformProps(2, 0.2),
			PackageMaxPowerW: []float64{60},
			ThrottleEnabled:  throttle,
			UnitThermal:      true,
			UnitLimitC:       44,
		}
		m := machine.MustNew(cfg)
		cat := Catalog()
		// Spawn order int, fp, int, fp: the load-spreading placement
		// puts both integer tasks on CPU 0 and both FP tasks on CPU 1.
		m.Spawn(cat.Intmix())
		m.Spawn(cat.Fpmix())
		m.Spawn(cat.Intmix())
		m.Spawn(cat.Fpmix())
		m.Run(60_000)
		warmupEx := m.MigrationCountByReason(sched.MigrateUnit)
		m.ResetStats()
		m.Run(measureMS)
		return m, warmupEx + m.MigrationCountByReason(sched.MigrateUnit)
	}
	// Unthrottled pair isolates the temperature contrast …
	blindT, _ := run(false, false)
	awareT, _ := run(true, false)
	// … the throttled pair measures the throughput consequence.
	blind, _ := run(false, true)
	aware, exchanges := run(true, true)
	return UnitAwareResult{
		MaxUnitTempBlind: blindT.MaxUnitTemp(),
		MaxUnitTempAware: awareT.MaxUnitTemp(),
		ThrottledBlind:   blind.AvgThrottledFrac(),
		ThrottledAware:   aware.AvgThrottledFrac(),
		GainPct: func() float64 {
			if blind.WorkRate() == 0 {
				return 0
			}
			return (aware.WorkRate()/blind.WorkRate() - 1) * 100
		}(),
		UnitExchanges: exchanges,
	}
}

// FormatUnitAware renders the experiment.
func FormatUnitAware(r UnitAwareResult) string {
	var b strings.Builder
	b.WriteString("§7 multiple-temperature extension: equal-power int vs fp tasks\n")
	fmt.Fprintf(&b, "%-22s %14s %11s\n", "balancer", "max unit temp", "throttled")
	fmt.Fprintf(&b, "%-22s %13.1f° %10.1f%%\n", "unit-blind (paper)", r.MaxUnitTempBlind, r.ThrottledBlind*100)
	fmt.Fprintf(&b, "%-22s %13.1f° %10.1f%%  (%+.1f%%, %d exchanges)\n",
		"unit-aware (§7)", r.MaxUnitTempAware, r.ThrottledAware*100, r.GainPct, r.UnitExchanges)
	return b.String()
}
