package machine_test

import (
	"fmt"
	"strings"
	"testing"

	"energysched/internal/machine"
	"energysched/internal/machine/benchscen"
)

// Engine benchmarks: the lockstep 1 ms loop versus the async
// discrete-event engine versus the NUMA-sharded parallel engine (large
// layouts only). The scenario
// definitions live in benchscen, shared with cmd/esbench so the
// committed BENCH_<date>.json trajectory measures exactly these cases.
// Each benchmark reports simulated CPU-milliseconds per wall second.

var engineSet = []machine.Engine{machine.EngineLockstep, machine.EngineAsync, machine.EngineParallel}

func runScenario(b *testing.B, sc benchscen.Scenario, e machine.Engine) {
	m := sc.New(e)
	m.Run(sc.WarmupMS) // settle dispatch/placement transients
	nCPU := float64(m.Cfg.Layout.NumLogical())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Run(sc.SimChunkMS)
	}
	b.ReportMetric(float64(b.N)*float64(sc.SimChunkMS)*nCPU/b.Elapsed().Seconds(), "cpu-ms/s")
}

// BenchmarkEngines compares the three engines on the three workload
// regimes that bound their speedups, e.g.
//
//	go test ./internal/machine -bench BenchmarkEngines -benchtime 2s
//
// The acceptance target: async ≥3× lockstep on steady-state, and far
// more on idle-heavy, where parked CPUs cost nothing per step.
func BenchmarkEngines(b *testing.B) {
	for _, sc := range benchscen.Engines() {
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
// engines on larger-than-paper machines (ROADMAP: 64–256 logical
// CPUs). Lockstep is skipped on the 256-CPU layout; at that size it is
// pure waiting.
func BenchmarkLargeTopology(b *testing.B) {
	for _, sc := range benchscen.Large() {
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

// BenchmarkParallelShards is the parallel engine's scaling curve: the
// saturated 1024-CPU scenario (the widest planner-bound case) at 1, 2,
// 4, and 8 shards. shards=1 measures the fork-join machinery's overhead
// against the async row above; the higher counts measure how the sweep
// scales with workers — read them alongside GOMAXPROCS, since a shard
// only speeds things up when a core is free to run it.
func BenchmarkParallelShards(b *testing.B) {
	var sat benchscen.Scenario
	for _, sc := range benchscen.Large() {
		if sc.Name == "large/1024cpu/saturated" {
			sat = sc
		}
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("1024cpu/saturated/s%d", shards), func(b *testing.B) {
			m := sat.New(machine.EngineParallel)
			if err := m.SetShards(shards); err != nil {
				b.Fatal(err)
			}
			m.Run(sat.WarmupMS)
			nCPU := float64(m.Cfg.Layout.NumLogical())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Run(sat.SimChunkMS)
			}
			b.ReportMetric(float64(b.N)*float64(sat.SimChunkMS)*nCPU/b.Elapsed().Seconds(), "cpu-ms/s")
		})
	}
}
