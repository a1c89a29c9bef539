package machine

import (
	"testing"

	"energysched/internal/dvfs"
	"energysched/internal/sched"
	"energysched/internal/topology"
	"energysched/internal/trace"
	"energysched/internal/workload"
)

// stopProgram is a one-phase program at f times aluadd's rates that
// blocks after about 1/blockPerMS ms of work for about blockMS ms (at
// least 1: TickInto clamps the draw), with 5% rate noise.
func stopProgram(name string, bin uint64, f, blockPerMS, blockMS float64) *workload.Program {
	r := catalog().Aluadd().Phases[0].Rates
	for i := range r {
		r[i] *= f
	}
	return &workload.Program{Name: name, Binary: bin, Phases: []workload.Phase{{
		Name: "run", Rates: r, MeanDurMS: 1e9, NoiseFrac: 0.05,
		BlockProbPerMS: blockPerMS, MeanBlockMS: blockMS,
	}}}
}

// flickerProgram alternates two phases of about 2.5 ms each, so its
// rates change inside a tick every few milliseconds: each change is a
// pop at the tick before it whose next piece runs the crossing tick
// ahead (eagerTick).
func flickerProgram() *workload.Program {
	lo, hi := catalog().Aluadd().Phases[0].Rates, catalog().Aluadd().Phases[0].Rates
	for i := range lo {
		lo[i] *= 0.3
		hi[i] *= 0.9
	}
	return &workload.Program{Name: "flicker", Binary: 911, Phases: []workload.Phase{
		{Name: "lo", Rates: lo, MeanDurMS: 2.5, Next: []int{1}},
		{Name: "hi", Rates: hi, MeanDurMS: 2.5, Next: []int{0}},
	}}
}

// stopMachine builds a machine for TestWindowLocalStopsMatchLockstep:
// the layout, one package budget, and cfg's changes to the rest.
func stopMachine(e Engine, layout topology.Layout, budgetW float64, cfg func(*Config)) *Machine {
	pol := sched.DefaultConfig()
	pol.EnergyAwarePlacement = false
	c := Config{
		Engine:           e,
		Layout:           layout,
		Sched:            pol,
		Seed:             13,
		PackageMaxPowerW: []float64{budgetW},
		Trace:            trace.New(0),
	}
	if cfg != nil {
		cfg(&c)
	}
	return MustNew(c)
}

// A block that leaves nothing queued anywhere is a window's local event
// (stopIsLocal): the pop commits it at its own tick, the CPU idles on
// its own clock, and a wake it draws shrinks the window. Each case is a
// hand-built machine where getting one condition or hazard wrong
// diverges from lockstep (trace bytes, and snapshots after every
// chunk, so a utilization window that heals later still shows):
//
//   - smt-busy-sibling: a block while the SMT sibling executes raises
//     the sibling's speed at the next tick, so it must stay a window
//     end.
//   - one-ms-block: blocks of 1 ms wake at the next tick, while a lower
//     CPU's rate crossings run a tick ahead at every few ms; a wake at
//     t+1 ends the window at t, so no crossing tick may run past t.
//   - thermal-governor and ondemand-governor: blocks on governor
//     instants, where governorEval returns early on the emptied CPU, so
//     the pop must not replay the evaluation's window restart.
//   - throttle-member: blocks on members of scalar per-package throttle
//     groups that engage and release, so parked CPUs stay on the step
//     list and the falling feed re-solves the group's flip.
//   - block-and-finish: short finite-work tasks blocking often, so a
//     block and the completion fall in one tick, which TickInto reports
//     as a finish: a cross-CPU event (the respawn's placement).
func TestWindowLocalStopsMatchLockstep(t *testing.T) {
	single := func(pkgs int) topology.Layout {
		return topology.Layout{Nodes: 1, PackagesPerNode: pkgs, CoresPerPackage: 1, ThreadsPerPackage: 1}
	}
	cases := []struct {
		name  string
		build func(e Engine) *Machine
		runMS int64
		// minStops is the least number of local stops the async run
		// must pop, minEnds the least number of windows a stop ends.
		minStops, minEnds int64
	}{
		{"smt-busy-sibling", func(e Engine) *Machine {
			m := stopMachine(e, topology.Layout{Nodes: 1, PackagesPerNode: 1, CoresPerPackage: 1, ThreadsPerPackage: 2}, 60, nil)
			m.Spawn(stopProgram("blocker", 912, 0.5, 1.0/20, 6))
			m.Spawn(stopProgram("sometimes", 913, 0.6, 1.0/60, 40))
			return m
		}, 6_000, 10, 20},
		{"one-ms-block", func(e Engine) *Machine {
			m := stopMachine(e, single(2), 60, nil)
			m.Spawn(flickerProgram())
			m.Spawn(stopProgram("blip", 914, 0.5, 1.0/4, 0.3))
			return m
		}, 4_000, 200, 0},
		{"thermal-governor", func(e Engine) *Machine {
			m := stopMachine(e, single(4), 22, func(c *Config) {
				c.DVFS = &dvfs.Config{Governor: "thermal"}
			})
			for i := 0; i < 3; i++ {
				m.Spawn(stopProgram("hotblock", 915, 1.2, 1.0/15, 4))
			}
			return m
		}, 8_000, 100, 0},
		{"ondemand-governor", func(e Engine) *Machine {
			m := stopMachine(e, single(4), 40, func(c *Config) {
				c.DVFS = &dvfs.Config{Governor: "ondemand"}
			})
			for i := 0; i < 3; i++ {
				m.Spawn(stopProgram("odblock", 916, 0.8, 1.0/15, 4))
			}
			return m
		}, 8_000, 20, 0},
		{"throttle-member", func(e Engine) *Machine {
			m := stopMachine(e, topology.Layout{Nodes: 1, PackagesPerNode: 2, CoresPerPackage: 2, ThreadsPerPackage: 1}, 30, func(c *Config) {
				c.ThrottleEnabled = true
				c.Scope = ThrottlePerPackage
			})
			for i := 0; i < 3; i++ {
				m.Spawn(stopProgram("thrblock", 917, 1.4, 1.0/25, 8))
			}
			return m
		}, 8_000, 50, 0},
		{"block-and-finish", func(e Engine) *Machine {
			m := stopMachine(e, single(3), 60, func(c *Config) {
				c.RespawnFinished = true
			})
			for i := 0; i < 2; i++ {
				m.Spawn(workload.WithWork(stopProgram("shortblock", 918, 0.7, 0.3, 2), 12))
			}
			return m
		}, 6_000, 100, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const chunks = 40
			lock, got := tc.build(EngineLockstep), tc.build(EngineAsync)
			var qs QuantumStats
			got.SetQuantumStats(&qs)
			for i := 0; i < chunks; i++ {
				lock.Run(tc.runMS / chunks)
				got.Run(tc.runMS / chunks)
				if diffs := DiffSnapshots(lock.Snapshot(), got.Snapshot(), 1e-6); len(diffs) > 0 {
					t.Fatalf("after %d ms: %v", lock.NowMS(), diffs)
				}
			}
			assertEquivalent(t, lock, got)
			lockCSV, gotCSV := traceCSV(t, lock.Cfg.Trace), traceCSV(t, got.Cfg.Trace)
			if gotCSV != lockCSV {
				t.Errorf("trace differs from lockstep: %s", firstTraceDiff(lockCSV, gotCSV))
			}
			stops, ends := qs.Interior[HorizonStop], qs.ByHorizon[HorizonStop]
			t.Logf("%d windows, %.1f ms each; %d local stops popped, %d windows ended at a stop, %d at a wake",
				qs.Quanta, qs.MeanMS(), stops, ends, qs.ByHorizon[HorizonWake])
			if stops < tc.minStops || ends < tc.minEnds {
				t.Errorf("%d local stops and %d stop-bound windows; want at least %d and %d", stops, ends, tc.minStops, tc.minEnds)
			}
		})
	}
}
