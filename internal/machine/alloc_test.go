package machine

import (
	"testing"

	"energysched/internal/sched"
	"energysched/internal/topology"
)

// Steady-state quanta must not allocate: once the machine reaches a
// stable regime (no migrations, no blocks, no respawns in the window),
// every step reuses the scratch buffers allocated at construction.
// This pins the hot path for the async engines — a regression here
// multiplies straight into large-topology sweep times via GC pressure.
// The parallel engine runs twice: once as built for this host, and once
// with a forced multi-worker pool, because its fork/join (a buffered
// channel send per worker plus one WaitGroup cycle) must also cost zero
// allocations per quantum. The engine rows run with quantum attribution
// off (the default); one more async row runs with it on.
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
	for _, e := range []Engine{EngineAsync, EngineParallel} {
		t.Run(e.String(), func(t *testing.T) {
			measure(t, func() *Machine { return MustNew(cfg(e)) })
		})
	}
	t.Run("async-quantum-stats", func(t *testing.T) {
		measure(t, func() *Machine {
			m := MustNew(cfg(EngineAsync))
			m.SetQuantumStats(new(QuantumStats))
			return m
		})
	})
	t.Run("parallel-pool", func(t *testing.T) {
		var m *Machine
		withWorkers(t, 2, func() { m = MustNew(cfg(EngineParallel)) })
		if m.par.workers != 2 {
			t.Fatalf("workers = %d, want 2", m.par.workers)
		}
		// AllocsPerRun pins GOMAXPROCS to 1, but the pool was sized at
		// construction, so the forks still go through the channels.
		measure(t, func() *Machine { return m })
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
