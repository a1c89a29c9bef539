package machine

import (
	"runtime"
	"testing"

	"energysched/internal/sched"
	"energysched/internal/topology"
	"energysched/internal/trace"
	"energysched/internal/workload"
)

// The equivalence suite (engine_test.go) asserts EngineParallel against
// the lockstep reference on every scenario, but on a single-core host
// its forks run inline (workers == 1). The tests here force a
// multi-worker pool by raising GOMAXPROCS before construction, so the
// channel fan-out, the barrier, and the canonical-order commit are
// exercised with real goroutine interleaving — and, under -race, with
// the race detector watching the shard boundaries.

// withWorkers runs fn with GOMAXPROCS raised so machines built inside
// it get a multi-worker pool even on a single-core host.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// TestParallelPoolEquivalence reruns every equivalence scenario on a
// forced 4-worker pool and asserts byte-identical traces and snapshots
// against the async engine. This is the concurrency complement of
// TestEngineEquivalence's inline-path coverage.
func TestParallelPoolEquivalence(t *testing.T) {
	withWorkers(t, 4, func() {
		for _, sc := range engineScenarios() {
			t.Run(sc.name, func(t *testing.T) {
				ref := sc.build(EngineAsync, 0)
				ref.Cfg.Trace = trace.New(0)
				ref.Run(sc.runMS)
				got := sc.build(EngineParallel, 0)
				if got.par.workers < 2 && got.par.shards > 1 {
					t.Fatalf("pool not multi-worker: %d workers", got.par.workers)
				}
				got.Cfg.Trace = trace.New(0)
				got.Run(sc.runMS)
				if diffs := DiffSnapshots(ref.Snapshot(), got.Snapshot(), 0); len(diffs) > 0 {
					t.Errorf("snapshot diverged from async: %v", diffs)
				}
				refCSV, gotCSV := traceCSV(t, ref.Cfg.Trace), traceCSV(t, got.Cfg.Trace)
				if refCSV != gotCSV {
					t.Errorf("event trace differs from async: %s", firstTraceDiff(refCSV, gotCSV))
				}
			})
		}
	})
}

// TestParallelShardCounts pins partition invariance at every shard
// count of a four-node machine — including 3, which does not divide the
// node count, so shards own unequal node groups.
func TestParallelShardCounts(t *testing.T) {
	cat := catalog()
	build := func(e Engine, shards int) *Machine {
		m := MustNew(Config{
			Engine: e, Shards: shards, Layout: topology.Server256(),
			Sched: sched.DefaultConfig(), Seed: 17,
			PackageMaxPowerW: []float64{30}, ThrottleEnabled: true,
			Scope: ThrottlePerPackage, MonitorPeriodMS: 500,
			RespawnFinished: true,
		})
		m.SpawnN(workload.WithWork(cat.Bitcnts(), 900), 40)
		m.SpawnN(workload.WithWork(cat.Memrw(), 700), 40)
		m.SpawnN(cat.Sshd(), 30)
		return m
	}
	withWorkers(t, 4, func() {
		const runMS = 4000
		ref := build(EngineAsync, 0)
		ref.Cfg.Trace = trace.New(0)
		ref.Run(runMS)
		refSnap, refCSV := ref.Snapshot(), traceCSV(t, ref.Cfg.Trace)
		for shards := 1; shards <= 4; shards++ {
			got := build(EngineParallel, shards)
			if got.par.shards != shards {
				t.Fatalf("shards = %d, want %d", got.par.shards, shards)
			}
			got.Cfg.Trace = trace.New(0)
			got.Run(runMS)
			if diffs := DiffSnapshots(refSnap, got.Snapshot(), 0); len(diffs) > 0 {
				t.Errorf("shards=%d diverged: %v", shards, diffs)
			}
			if gotCSV := traceCSV(t, got.Cfg.Trace); gotCSV != refCSV {
				t.Errorf("shards=%d trace differs: %s", shards, firstTraceDiff(refCSV, gotCSV))
			}
		}
	})
}

// TestParallelShardsConfig covers Shards resolution.
func TestParallelShardsConfig(t *testing.T) {
	base := Config{
		Engine: EngineParallel, Layout: topology.Server64(),
		Sched: sched.BaselineConfig(), Seed: 1,
	}
	if m := MustNew(base); m.Cfg.Shards != 2 || m.par.shards != 2 {
		t.Errorf("default shards = %d/%d, want nodes (2)", m.Cfg.Shards, m.par.shards)
	}
	over := base
	over.Shards = 99
	if m := MustNew(over); m.Cfg.Shards != 2 {
		t.Errorf("oversubscribed shards = %d, want clamped to 2", m.Cfg.Shards)
	}
	neg := base
	neg.Shards = -1
	if _, err := New(neg); err == nil {
		t.Error("negative Shards accepted")
	}
}

// TestParallelRaceStressServer1024 is the race-detector stress test:
// a Server1024 machine under a migration/respawn storm — short
// CPU-bound tasks finishing and respawning continuously, hot-task
// migration and energy balancing active, per-package throttles
// engaging — on a forced 8-worker pool, with an async twin asserting
// the storm stayed deterministic. Under -race this drives the shard
// barrier and the staged-commit boundary through heavy goroutine
// interleaving (see the CI race job).
func TestParallelRaceStressServer1024(t *testing.T) {
	cat := catalog()
	build := func(e Engine) *Machine {
		m := MustNew(Config{
			Engine: e, Layout: topology.Server1024(),
			Sched: sched.DefaultConfig(), Seed: 29,
			PackageMaxPowerW: []float64{130}, ThrottleEnabled: true,
			Scope: ThrottlePerPackage, MonitorPeriodMS: 500,
			RespawnFinished: true,
		})
		// Oversubscribed: ~1.2 tasks per CPU, so runqueues have depth
		// and the balancers actually move tasks.
		m.SpawnN(workload.WithWork(cat.Bitcnts(), 350), 700)
		m.SpawnN(workload.WithWork(cat.Memrw(), 250), 500)
		m.SpawnN(cat.Sshd(), 64)
		return m
	}
	withWorkers(t, 8, func() {
		got := build(EngineParallel)
		for i := 0; i < 4; i++ {
			got.Run(300)
		}
		if got.Completions == 0 {
			t.Fatal("storm produced no completions; the stress is not stressing")
		}
		if got.MigrationCount() == 0 {
			t.Fatal("storm produced no migrations; the stress is not stressing")
		}
		ref := build(EngineAsync)
		ref.Run(1200)
		if diffs := DiffSnapshots(ref.Snapshot(), got.Snapshot(), 0); len(diffs) > 0 {
			t.Errorf("storm diverged from async: %v", diffs)
		}
	})
}
