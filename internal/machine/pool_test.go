package machine

import (
	"runtime"
	"sync"
	"testing"

	"energysched/internal/sched"
	"energysched/internal/topology"
	"energysched/internal/trace"
	"energysched/internal/workload"
)

// A machine runs on one goroutine, but the experiment runner
// (internal/experiments.ForEach) and the farm server run many machines
// at once, on a worker pool, with the catalog, the layouts and the
// power models shared between them. The tests here run machines
// concurrently — GOMAXPROCS raised so the goroutines interleave even on
// a single-core host — and assert that each one is byte-identical to
// the same machine run alone. Under -race (see the CI race job) they
// also catch any write to state that machines share.

// runConcurrently runs n copies of build+run on their own goroutines at
// once and returns the machines in index order.
func runConcurrently(n int, build func() *Machine, run func(*Machine)) []*Machine {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	out := make([]*Machine, n)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := build()
			run(m)
			out[i] = m
		}()
	}
	wg.Wait()
	return out
}

// TestParallelPoolEquivalence reruns every equivalence scenario as two
// async machines stepping concurrently and asserts that each one's
// snapshot and event trace are byte-identical to the same scenario run
// alone. This is the concurrency complement of TestEngineEquivalence,
// which runs one machine at a time.
func TestParallelPoolEquivalence(t *testing.T) {
	for _, sc := range engineScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			build := func() *Machine {
				m := sc.build(EngineAsync)
				m.Cfg.Trace = trace.New(0)
				return m
			}
			ref := build()
			ref.Run(sc.runMS)
			refSnap, refCSV := ref.Snapshot(), traceCSV(t, ref.Cfg.Trace)
			twins := runConcurrently(2, build, func(m *Machine) { m.Run(sc.runMS) })
			for i, got := range twins {
				if diffs := DiffSnapshots(refSnap, got.Snapshot(), 0); len(diffs) > 0 {
					t.Errorf("twin %d: snapshot diverged from the lone run: %v", i, diffs)
				}
				if gotCSV := traceCSV(t, got.Cfg.Trace); gotCSV != refCSV {
					t.Errorf("twin %d: event trace differs from the lone run: %s",
						i, firstTraceDiff(refCSV, gotCSV))
				}
			}
		})
	}
}

// TestParallelRaceStressServer1024 is the race-detector stress test:
// two Server1024 machines under a migration/respawn storm — short
// CPU-bound tasks finishing and respawning continuously, hot-task
// migration and energy balancing active, per-package throttles
// engaging — stepping concurrently in several Run calls each, with a
// lone twin asserting that the storm stayed deterministic.
func TestParallelRaceStressServer1024(t *testing.T) {
	cat := catalog()
	build := func() *Machine {
		m := MustNew(Config{
			Engine: EngineAsync, Layout: topology.Server1024(),
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
	storms := runConcurrently(2, build, func(m *Machine) {
		for i := 0; i < 4; i++ {
			m.Run(300)
		}
	})
	ref := build()
	ref.Run(1200)
	refSnap := ref.Snapshot()
	for i, got := range storms {
		if got.Completions == 0 {
			t.Fatalf("storm %d produced no completions; the stress is not stressing", i)
		}
		if got.MigrationCount() == 0 {
			t.Fatalf("storm %d produced no migrations; the stress is not stressing", i)
		}
		if diffs := DiffSnapshots(refSnap, got.Snapshot(), 0); len(diffs) > 0 {
			t.Errorf("storm %d diverged from the lone run: %v", i, diffs)
		}
	}
}
