package machine

import (
	"math"
	"math/rand"
	"testing"

	"energysched/internal/profile"
	"energysched/internal/sched"
	"energysched/internal/topology"
	"energysched/internal/trace"
)

// The hot-check horizon may skip a check only if it provably finds the
// core below its trigger. Brute force: step a core's per-CPU metrics
// one millisecond at a time (the lockstep engine's partition) and also
// fold each prefix as one quantum (the async engine's); whenever either
// sum reaches the trigger within k ms, hotSumMayReach must say the
// check at k could act. Triggers are drawn at random and exactly at,
// one ulp around, and 1e-12 around the stepped sums.
func TestHotSumMayReachBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const horizon = 120
	var reached, skipped int
	for trial := 0; trial < 300; trial++ {
		threads := 1 + r.Intn(2)
		weight := math.Pow(10, -4+3*r.Float64())
		stdMS := []float64{1, 10, 100}[r.Intn(3)]
		budget := 20 + 80*r.Float64()
		share := budget / float64(threads)
		seeds := make([]float64, threads)
		feeds := make([]float64, threads)
		for i := range seeds {
			seeds[i] = share * (0.2 + 1.3*r.Float64())
			feeds[i] = share * (0.2 + 1.3*r.Float64())
		}
		newCore := func() []*profile.CPUPower {
			core := make([]*profile.CPUPower, threads)
			for i := range core {
				core[i] = profile.NewCPUPower(share, weight, stdMS, seeds[i])
			}
			return core
		}
		sum := func(core []*profile.CPUPower) float64 {
			s := 0.0
			for _, p := range core {
				s += p.ThermalPower()
			}
			return s
		}
		core := newCore()
		s0, x := sum(core), 0.0
		for _, f := range feeds {
			x += f
		}
		retain := core[0].RetentionPerMS()
		stepped := make([]float64, horizon+1)
		folded := make([]float64, horizon+1)
		for j := 1; j <= horizon; j++ {
			for i, p := range core {
				p.AddEnergy(feeds[i]/1000, 1)
			}
			stepped[j] = sum(core)
			quantum := newCore()
			for i, p := range quantum {
				p.AddEnergy(feeds[i]*float64(j)/1000, float64(j))
			}
			folded[j] = sum(quantum)
		}

		at := stepped[1+r.Intn(horizon)]
		for _, trigger := range []float64{
			budget - 1,
			s0 + (x-s0)*r.Float64(),
			at, math.Nextafter(at, 0), math.Nextafter(at, math.Inf(1)),
			at * (1 - 1e-12), at * (1 + 1e-12),
		} {
			hit := false
			for k := 1; k <= horizon; k++ {
				hit = hit || stepped[k] >= trigger || folded[k] >= trigger
				may := hotSumMayReach(s0, x, retain, trigger, int64(k))
				if hit && !may {
					t.Fatalf("trial %d: s0=%v x=%v retain=%v trigger=%v: sum reaches the trigger by %d ms, but the check there was judged a no-op",
						trial, s0, x, retain, trigger, k)
				}
				if hit {
					reached++
				} else if !may {
					skipped++
				}
			}
		}
	}
	if reached == 0 || skipped == 0 {
		t.Fatalf("vacuous draw: %d reaching and %d skippable checks", reached, skipped)
	}
}

// A saturated SMT machine heats from cold through its hot trigger
// mid-run. Before the crossing every hot check is a no-op, and the
// planner steps past them; from the crossing on, checks act and hot
// migrations swap tasks between cores. The skipped checks must not
// change a single trace byte against the lockstep engine, which runs
// every check.
func TestHotHorizonSkipsNoOpChecks(t *testing.T) {
	// Placement that ignores energy leaves some cores with two bitcnts,
	// and a 4 W destination gap lets their hot checks swap one away.
	pol := sched.DefaultConfig()
	pol.EnergyAwarePlacement = false
	pol.HotDestGapW = 4
	build := func(e Engine) *Machine {
		m := MustNew(Config{
			Engine: e, Layout: topology.XSeries445(),
			Sched: pol, Seed: 3,
			PackageMaxPowerW: []float64{50},
			Trace:            trace.New(0),
		})
		cat := catalog()
		m.SpawnN(cat.Bitcnts(), 10)
		m.SpawnN(cat.Memrw(), 6)
		return m
	}
	const runMS = 20_000
	lock := build(EngineLockstep)
	lock.Run(runMS)
	lockCSV := traceCSV(t, lock.Cfg.Trace)
	firstHot := int64(-1)
	for _, ev := range lock.Cfg.Trace.Events() {
		if ev.Kind == trace.Migrate && ev.Detail == sched.MigrateHot.String() {
			firstHot = ev.TimeMS
			break
		}
	}
	if firstHot < 1_000 {
		t.Fatalf("first hot migration at %d ms; want the machine to start below its trigger", firstHot)
	}
	for _, engine := range []Engine{EngineAsync, EngineParallel} {
		got := build(engine)
		got.Run(runMS)
		assertEquivalent(t, lock, got)
		if gotCSV := traceCSV(t, got.Cfg.Trace); gotCSV != lockCSV {
			t.Errorf("%s: trace differs from lockstep: %s", engine, firstTraceDiff(lockCSV, gotCSV))
		}
		if n := got.MigrationCountByReason(sched.MigrateHot); n == 0 {
			t.Errorf("%s: no hot migration", engine)
		}
		// Every CPU runs one task throughout, so every grid instant is
		// an armed hot check; firing all of them would equal the grid.
		grid := 0
		for ms := int64(0); ms < runMS; ms++ {
			grid += len(got.wheel.HotDueCPUs(ms))
		}
		if _, _, hot, _ := got.DeadlineFires(); hot >= int64(grid) {
			t.Errorf("%s: %d hot checks fired of %d on the grid; none skipped", engine, hot, grid)
		}
	}
}
