package machine

import (
	"testing"

	"energysched/internal/sched"
	"energysched/internal/topology"
)

// Steady-state quanta must not allocate: once the machine reaches a
// stable regime (no migrations, no blocks, no respawns in the window),
// every step reuses the scratch buffers allocated at construction.
// This pins the async engine's hot path — a regression here
// multiplies straight into large-topology sweep times via GC pressure.
// The first row runs with quantum attribution off (the default); the
// second runs with it on.
func TestSteadyStateQuantumAllocs(t *testing.T) {
	measure := func(t *testing.T, build func() *Machine) {
		t.Helper()
		m := build()
		// One identical CPU-bound task per logical CPU: balanced
		// load, nothing queued, nothing blocking.
		m.SpawnN(catalog().Aluadd(), m.Cfg.Layout.NumLogical())
		m.Run(10_000) // settle placement and thermal transients
		before := m.MigrationCount()
		allocs := testing.AllocsPerRun(10, func() { m.Run(500) })
		if m.MigrationCount() != before {
			t.Skip("workload migrated during the measurement window; not steady state")
		}
		if allocs > 0 {
			t.Errorf("steady-state Run allocates %.1f objects per 500 ms", allocs)
		}
	}
	cfg := func(e Engine) Config {
		return Config{
			Engine:           e,
			Layout:           topology.XSeries445(),
			Sched:            sched.DefaultConfig(),
			Seed:             3,
			PackageMaxPowerW: []float64{60},
		}
	}
	t.Run("async", func(t *testing.T) {
		measure(t, func() *Machine { return MustNew(cfg(EngineAsync)) })
	})
	t.Run("async-quantum-stats", func(t *testing.T) {
		measure(t, func() *Machine {
			m := MustNew(cfg(EngineAsync))
			m.SetQuantumStats(new(QuantumStats))
			return m
		})
	})
}

// The async engine's extra machinery — parking, settling, the wake
// heap — must not allocate per step either once the heap has grown to
// its working size. Mostly-idle is the async engine's hot regime.
func TestIdleQuantumAllocs(t *testing.T) {
	m := MustNew(Config{
		Engine:           EngineAsync,
		Layout:           topology.Server64(),
		Sched:            sched.DefaultConfig(),
		Seed:             7,
		PackageMaxPowerW: []float64{120},
	})
	m.SpawnN(catalog().Aluadd(), 2) // two busy CPUs, 62 parked
	m.Run(10_000)
	before := m.MigrationCount()
	allocs := testing.AllocsPerRun(10, func() { m.Run(500) })
	if m.MigrationCount() != before {
		t.Skip("workload migrated during the measurement window; not steady state")
	}
	if allocs > 0 {
		t.Errorf("mostly-idle async Run allocates %.1f objects per 500 ms", allocs)
	}
}
