package experiments

import (
	"fmt"

	"energysched/internal/machine"
	"energysched/internal/scenario"
)

// Seed sweeps: run one scenario's measurement window under many
// divergent seeds. Two execution plans produce byte-identical rows:
//
//   - rebuild: every seed builds its own machine and re-simulates the
//     warm-up (SeedSweepRebuild) — simple, embarrassingly parallel,
//     and wasteful when the warm-up dominates;
//   - warm-branch: the warm-up runs once, the warmed machine is
//     checkpointed (WarmImage), and every seed branches an in-memory
//     copy of the restored template. The esfarmd daemon (internal/farm)
//     is this plan, with the image cached across requests.
//
// Equivalence is by construction, not by tolerance: a branch is a
// bit-exact copy of the warmed machine, and a rebuilt machine reaches
// the same warmed state deterministically, so both plans enter
// Reseed(seed) from identical states. TestSeedSweepPlansAgree pins the
// equivalence on this package's primitives, and the farm's
// TestSweepMatchesExperiments pins it on the daemon's stream.

// SeedRow is one seed's measured outcome over the measurement window.
// The JSON form is the esfarmd result-stream row.
type SeedRow struct {
	Seed           uint64  `json:"seed"`
	Completions    int64   `json:"completions"`
	WorkDoneMS     float64 `json:"work_done_ms"`
	TrueEnergyJ    float64 `json:"true_energy_j"`
	EstimationErrJ float64 `json:"estimation_err_j"`
	Migrations     int64   `json:"migrations"`
	PeakTempC      float64 `json:"peak_temp_c"`
	ThrottledFrac  float64 `json:"throttled_frac"`
}

// MeasureSeed diverges a warmed machine with the seed and measures one
// window. The esfarmd daemon calls it per branch so rows can stream as
// they complete.
func MeasureSeed(m *machine.Machine, seed uint64, measureMS int64) SeedRow {
	m.Reseed(seed)
	m.ResetStats()
	m.Run(measureMS)
	return SeedRow{
		Seed:           seed,
		Completions:    m.Completions,
		WorkDoneMS:     m.WorkDoneMS,
		TrueEnergyJ:    m.TrueEnergyJ,
		EstimationErrJ: m.EstimationErrJ,
		Migrations:     m.MigrationCount(),
		PeakTempC:      m.PeakTempC(),
		ThrottledFrac:  m.AvgThrottledFrac(),
	}
}

// WarmImage builds the scenario's machine, runs the warm-up, and
// returns its checkpoint image. Identical (spec, warmup) inputs produce
// identical bytes — the esfarmd image cache keys on exactly that pair.
func WarmImage(spec scenario.Spec, warmupMS int64) ([]byte, error) {
	m, err := spec.Build(machine.EngineAsync, nil)
	if err != nil {
		return nil, err
	}
	m.Run(warmupMS)
	return m.Checkpoint()
}

// SeedSweepRebuild is the reference plan: every seed builds its own
// machine and re-simulates the warm-up. Byte-identical to the
// warm-branch plan.
func (rc RunConfig) SeedSweepRebuild(spec scenario.Spec, warmupMS, measureMS int64, seeds []uint64) ([]SeedRow, error) {
	rows := make([]SeedRow, len(seeds))
	err := rc.ForEach(len(seeds), func(i int) {
		m, err := spec.Build(machine.EngineAsync, nil)
		if err != nil {
			panic(fmt.Sprintf("build for seed %d: %v", seeds[i], err))
		}
		m.Run(warmupMS)
		rows[i] = MeasureSeed(m, seeds[i], measureMS)
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
