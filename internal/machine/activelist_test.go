package machine

import (
	"fmt"
	"math/rand"
	"testing"

	"energysched/internal/sched"
	"energysched/internal/topology"
	"energysched/internal/trace"
	"energysched/internal/workload"
)

// Property tests for the O(busy) step: the async engine's maintained
// active-CPU/active-core lists must stay consistent with the parking
// state through arbitrary spawn/wake/migration churn, and the engine
// must stay equivalent to the lockstep reference under respawn and
// wake storms.

// checkActiveLists asserts every structural invariant tying the
// membership bitmaps, the materialized lists, and the parking state
// together. Called between simulation chunks of the storm tests, so
// every class of runqueue mutation (spawn placement, wake-up, block,
// finish, timeslice rotation, balance/idle/hot migration) has run many
// times between checks.
func checkActiveLists(t *testing.T, m *Machine) {
	t.Helper()
	if !m.async {
		return
	}
	nParked := 0
	for c := range m.parked {
		// Under scalar throttles parked CPUs keep their per-step metric
		// updates, so they stay on the list.
		want := !m.parked[c] || len(m.throttles) > 0
		got := m.liveCPUBits[c>>6]&(1<<(uint(c)&63)) != 0
		if got != want {
			t.Fatalf("cpu %d: active bit %v, want %v (parked=%v throttles=%d)",
				c, got, want, m.parked[c], len(m.throttles))
		}
		if m.parked[c] {
			nParked++
			rq := m.Sched.RQs[c]
			if rq.Current != nil || len(rq.Queued()) > 0 {
				t.Fatalf("cpu %d parked with work: current=%v queued=%d",
					c, rq.Current, len(rq.Queued()))
			}
		}
	}
	if nParked != m.nParked {
		t.Fatalf("nParked counter %d, bitmap says %d", m.nParked, nParked)
	}
	cores := m.Cfg.Layout.Cores()
	for core := range m.nodes {
		want := !m.pkgParked[core/cores]
		got := m.liveCoreBits[core>>6]&(1<<(uint(core)&63)) != 0
		if got != want {
			t.Fatalf("core %d: active bit %v, want %v", core, got, want)
		}
	}
	// The materialized views agree with the bitmaps and are ascending
	// (the phases rely on sweep order for cross-engine determinism).
	for name, pair := range map[string]struct {
		list []int32
		bits []uint64
	}{
		"stepCPUs":     {m.stepCPUs(), m.liveCPUBits},
		"stepCoreList": {m.stepCoreList(), m.liveCoreBits},
	} {
		set := 0
		for _, w := range pair.bits {
			for ; w != 0; w &= w - 1 {
				set++
			}
		}
		if len(pair.list) != set {
			t.Fatalf("%s: %d entries, bitmap has %d", name, len(pair.list), set)
		}
		for i, c := range pair.list {
			if i > 0 && c <= pair.list[i-1] {
				t.Fatalf("%s not ascending at %d: %v", name, i, pair.list)
			}
			if pair.bits[c>>6]&(1<<(uint(c)&63)) == 0 {
				t.Fatalf("%s contains %d but bit is clear", name, c)
			}
		}
	}
}

// stormLayouts are the topologies the randomized storms draw from:
// plain SMP, SMT, SMT+CMP server, and the CMP used by the §7 tests.
func stormLayouts() []topology.Layout {
	return []topology.Layout{
		topology.XSeries445NoSMT(),
		topology.XSeries445(),
		topology.Server64(),
		topology.CMP2x2(),
	}
}

// buildStorm constructs a randomized spawn/wake storm machine: a mix of
// interactive programs (wake storms: every sleep→wake transition is an
// activation) and short finite respawning tasks (respawn storms: every
// completion queues a fresh task that is placed right after the
// execution sweep, often un-parking its CPU). All parameters derive
// from trial, so each engine builds an identical machine.
func buildStorm(trial int64, lay topology.Layout, e Engine) *Machine {
	rng := rand.New(rand.NewSource(trial))
	cfg := Config{
		Engine: e, Layout: lay,
		Sched:            sched.DefaultConfig(),
		Seed:             uint64(trial*7919 + 13),
		PackageMaxPowerW: []float64{40 + 20*rng.Float64()},
		RespawnFinished:  true,
	}
	if rng.Intn(2) == 0 {
		cfg.MonitorPeriodMS = 100 * (1 + rng.Intn(10))
	}
	if rng.Intn(3) == 0 {
		cfg.ThrottleEnabled = true
		cfg.Scope = []ThrottleScope{ThrottlePerLogical, ThrottlePerPackage}[rng.Intn(2)]
	}
	m := MustNew(cfg)
	cat := catalog()
	interactive := []func() *workload.Program{cat.Sshd, cat.Httpd, cat.Bash}
	cpubound := []func() *workload.Program{cat.Bitcnts, cat.Memrw, cat.Bzip2}
	for i, n := 0, 2+rng.Intn(6); i < n; i++ {
		m.Spawn(interactive[rng.Intn(len(interactive))]())
	}
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		// Short finite work keeps completions (and thus respawn
		// placements) frequent.
		m.Spawn(workload.WithWork(cpubound[rng.Intn(len(cpubound))](), 300+float64(rng.Intn(1200))))
	}
	return m
}

// TestActivationBehindCursor is the respawn- and wake-storm
// equivalence test: under randomized storms, across random chunk
// boundaries, the async engine must stay byte-identical to the
// lockstep reference — every activation, including the respawn
// placements that follow the execution sweep, must settle the
// activated CPU and its package to exactly the lockstep state — and
// its active lists must be consistent after every chunk.
func TestActivationBehindCursor(t *testing.T) {
	layouts := stormLayouts()
	for trial := int64(0); trial < 8; trial++ {
		lay := layouts[trial%int64(len(layouts))]
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			const totalMS = 12_000
			lock := buildStorm(trial, lay, EngineLockstep)
			lock.Cfg.Trace = trace.New(0)
			lock.Run(totalMS)

			async := buildStorm(trial, lay, EngineAsync)
			async.Cfg.Trace = trace.New(0)
			chunks := rand.New(rand.NewSource(trial ^ 0x5eed))
			for async.NowMS() < totalMS {
				chunk := int64(1 + chunks.Intn(3000))
				if rem := totalMS - async.NowMS(); chunk > rem {
					chunk = rem
				}
				async.Run(chunk)
				checkActiveLists(t, async)
			}
			assertEquivalent(t, lock, async)
			if a, b := traceCSV(t, lock.Cfg.Trace), traceCSV(t, async.Cfg.Trace); a != b {
				t.Errorf("storm trace diverged: %s", firstTraceDiff(a, b))
			}
		})
	}
}

// TestActiveListConsistencyUnderMutations is the mutation-storm test:
// one long storm with fine-grained chunks (so checks interleave tightly
// with runqueue mutations) on the widest layout, including
// parked-package transitions.
func TestActiveListConsistencyUnderMutations(t *testing.T) {
	m := buildStorm(99, topology.Server64(), EngineAsync)
	for m.NowMS() < 30_000 {
		m.Run(25)
		checkActiveLists(t, m)
	}
	if m.nParked == 0 {
		t.Error("storm never parked a CPU; the test exercised nothing")
	}
}

// TestStepAllocsBounded guards the O(busy) execution path against
// per-quantum allocations: steady-state simulation must not allocate
// per step or per CPU. A small constant budget absorbs amortized
// reallocations (migration log, sleeper list growth); anything O(steps)
// or O(nCPU) blows past it immediately (a 3 s chunk runs thousands of
// quanta over 64 CPUs).
func TestStepAllocsBounded(t *testing.T) {
	m := MustNew(Config{
		Layout: topology.Server64(), Engine: EngineAsync,
		Sched: sched.DefaultConfig(), Seed: 17,
		PackageMaxPowerW: []float64{120},
	})
	cat := catalog()
	m.SpawnN(cat.Sshd(), 3) // wake churn
	m.SpawnN(cat.Httpd(), 3)
	m.SpawnN(cat.Bitcnts(), 2) // busy CPUs
	m.Run(10_000)              // reach steady state, warm all buffers
	allocs := testing.AllocsPerRun(5, func() { m.Run(3_000) })
	if allocs > 24 {
		t.Errorf("steady-state Run(3s) allocates %.0f times; the step path regressed to per-quantum allocation", allocs)
	}
}
