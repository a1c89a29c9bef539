package machine_test

import (
	"strings"
	"testing"

	"energysched/internal/machine"
	"energysched/internal/scenario"
)

// Engine benchmarks: the lockstep 1 ms loop versus the async
// discrete-event engine. The matrix runs with
//
//	go test ./internal/machine -run '^$' -bench 'Engines|LargeTopology'
//
// and each benchmark reports simulated CPU-milliseconds per wall second
// (cpu-ms/s). End-to-end regressions are judged by the repository
// benchmark in bench/ (paired parent/change runs), not by these rows.

// benchScenario is one benchmark case: a catalog scenario plus its
// timing envelope, shared across engines. The machine configurations
// live in the scenario catalog (the same names esfarmd serves); the
// envelope adds chunk and warm-up lengths and whether a case excludes
// the lockstep engine.
type benchScenario struct {
	// Name identifies the case and is also its key in the scenario
	// catalog ("engines/idle-heavy", "large/256cpu/saturated", ...).
	Name string
	// Spec is the catalog entry the machine is built from.
	Spec scenario.Spec
	// SimChunkMS is the simulated milliseconds per timed iteration.
	SimChunkMS int64
	// WarmupMS settles dispatch/placement transients before timing.
	WarmupMS int64
	// SkipLockstep excludes the lockstep engine (on the largest
	// layouts it is pure waiting).
	SkipLockstep bool
}

// New builds the machine, workload spawned, on the given engine.
func (s benchScenario) New(e machine.Engine) *machine.Machine {
	m, err := s.Spec.Build(e, nil)
	if err != nil {
		panic("bench scenario " + s.Name + ": " + err.Error())
	}
	return m
}

// Skips reports whether the scenario excludes an engine.
func (s benchScenario) Skips(e machine.Engine) bool {
	return s.SkipLockstep && e == machine.EngineLockstep
}

func fromCatalog(name string, chunkMS, warmupMS int64, skipLockstep bool) benchScenario {
	return benchScenario{
		Name:         name,
		Spec:         scenario.MustNamed(name),
		SimChunkMS:   chunkMS,
		WarmupMS:     warmupMS,
		SkipLockstep: skipLockstep,
	}
}

// engineBenchScenarios returns the four workload regimes that bound the
// engines' speedups: idle-heavy (a large machine where most CPUs sleep
// while a few run hot — the async engine's case), steady-state
// (saturated; quanta bounded by balance/hot-check deadlines, nothing to
// park), churn-heavy (completions, respawns, and throttle oscillation
// shrink the quanta), and dvfs-thermal (thermal-governor evaluations
// that could change a P-state and pending transitions add planner
// horizons; the planner steps over the evaluations that cannot).
func engineBenchScenarios() []benchScenario {
	return []benchScenario{
		fromCatalog("engines/idle-heavy", 10_000, 5_000, false),
		fromCatalog("engines/steady-state", 10_000, 5_000, false),
		fromCatalog("engines/churn-heavy", 10_000, 5_000, false),
		fromCatalog("engines/dvfs-thermal", 10_000, 5_000, false),
	}
}

// largeBenchScenarios returns the larger-than-paper layouts (64–1024
// logical CPUs) in the two regimes that matter at scale: mostly-idle (a
// few hot tasks on a big box) and saturated (planner cost dominates) —
// plus wide-idle at the two largest layouts: interactive
// (mostly-blocked) tasks only, so nearly all CPUs park and the quantum
// is bounded by wake-ups alone. (The 1024-CPU wide-idle budget is 360 W
// so the per-core budget stays level with the 256-CPU run's; at 120 W
// the quad-core packages' tighter cores would sit at budget under a
// single busy task and the pair would compare hot-migration storms
// instead of engine scaling.)
func largeBenchScenarios() []benchScenario {
	var out []benchScenario
	for _, name := range []string{"64cpu", "256cpu", "1024cpu"} {
		skip := name != "64cpu"
		out = append(out,
			fromCatalog("large/"+name+"/mostly-idle", 5_000, 3_000, skip),
			fromCatalog("large/"+name+"/saturated", 5_000, 3_000, skip),
		)
	}
	out = append(out,
		fromCatalog("large/256cpu/wide-idle", 5_000, 3_000, true),
		fromCatalog("large/1024cpu/wide-idle", 5_000, 3_000, true),
	)
	return out
}

var engineSet = []machine.Engine{machine.EngineLockstep, machine.EngineAsync}

func runScenario(b *testing.B, sc benchScenario, e machine.Engine) {
	m := sc.New(e)
	m.Run(sc.WarmupMS) // settle dispatch/placement transients
	nCPU := float64(m.Cfg.Layout.NumLogical())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Run(sc.SimChunkMS)
	}
	b.ReportMetric(float64(b.N)*float64(sc.SimChunkMS)*nCPU/b.Elapsed().Seconds(), "cpu-ms/s")
}

// BenchmarkEngines compares the two engines on the workload regimes
// that bound their speedups, e.g.
//
//	go test ./internal/machine -run '^$' -bench BenchmarkEngines -benchtime 2s
//
// The acceptance target: async ≥3× lockstep on steady-state, and far
// more on idle-heavy, where parked CPUs cost nothing per step.
func BenchmarkEngines(b *testing.B) {
	for _, sc := range engineBenchScenarios() {
		for _, e := range engineSet {
			if sc.Skips(e) {
				continue
			}
			b.Run(strings.TrimPrefix(sc.Name, "engines/")+"/"+e.String(), func(b *testing.B) {
				runScenario(b, sc, e)
			})
		}
	}
}

// BenchmarkLargeTopology profiles the per-quantum planner and the
// engines on larger-than-paper machines. Lockstep is skipped on the
// 256- and 1024-CPU layouts; at that size it is pure waiting.
func BenchmarkLargeTopology(b *testing.B) {
	for _, sc := range largeBenchScenarios() {
		for _, e := range engineSet {
			if sc.Skips(e) {
				continue
			}
			b.Run(strings.TrimPrefix(sc.Name, "large/")+"/"+e.String(), func(b *testing.B) {
				runScenario(b, sc, e)
			})
		}
	}
}
