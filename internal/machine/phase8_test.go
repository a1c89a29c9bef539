package machine_test

import (
	"fmt"
	"testing"

	"energysched/internal/energy"
	"energysched/internal/fuzz"
	"energysched/internal/machine"
	"energysched/internal/profile"
	"energysched/internal/rng"
	"energysched/internal/scenario"
	"energysched/internal/sched"
	"energysched/internal/topology"
	"energysched/internal/trace"
	"energysched/internal/workload"
)

// phase8Tally counts the kinds of state TestFireDueDeadlinesMatchesMergedWalk
// compared the two phase-8 walks from.
type phase8Tally struct {
	states int
	// queued: a task was already waiting when the walk started.
	queued int
	// hotQueued: nothing was waiting, and a hot check migrated a task
	// (so the fast path had to resume the merged walk).
	hotQueued int
	// laterActed: nothing was waiting, and a balance or idle-pull pass
	// after such a hot check migrated a task.
	laterActed int
}

// compare restores two copies of m, runs the merged reference walk on
// one and phase 8 on the other with m's current tick as the end tick,
// and requires the same machine and the same DeadlineFires, right
// after the walk and 50 ms of running later.
func (tally *phase8Tally) compare(t *testing.T, label string, m *machine.Machine) {
	t.Helper()
	img, err := m.Checkpoint()
	if err != nil {
		t.Fatalf("%s: checkpoint: %v", label, err)
	}
	restore := func() *machine.Machine {
		c, err := machine.Restore(img, nil)
		if err != nil {
			t.Fatalf("%s: restore: %v", label, err)
		}
		return c
	}
	ref, got := restore(), restore()
	queued := got.Sched.QueuedCount() > 0
	before := got.Sched.MigrationsByReason
	ref.FirePhase8(true)
	got.FirePhase8(false)
	after := ref.Sched.MigrationsByReason
	same := func(when string) bool {
		t.Helper()
		ok := true
		for _, d := range machine.DiffSnapshots(ref.Snapshot(), got.Snapshot(), 0) {
			t.Errorf("%s, %s: %s", label, when, d)
			ok = false
		}
		rb, ri, rh, rg := ref.DeadlineFires()
		gb, gi, gh, gg := got.DeadlineFires()
		if rb != gb || ri != gi || rh != gh || rg != gg {
			t.Errorf("%s, %s: DeadlineFires = %d/%d/%d/%d, merged walk %d/%d/%d/%d",
				label, when, gb, gi, gh, gg, rb, ri, rh, rg)
			ok = false
		}
		return ok
	}
	if !same("after the walk") {
		return
	}
	ref.Run(50)
	got.Run(50)
	same("50 ms on")

	tally.states++
	switch {
	case queued:
		tally.queued++
	case after[sched.MigrateHot] > before[sched.MigrateHot]:
		tally.hotQueued++
		for _, r := range []sched.MigrationReason{sched.MigrateLoad, sched.MigrateEnergy, sched.MigrateUnit} {
			if after[r] > before[r] {
				tally.laterActed++
				break
			}
		}
	}
}

// Phase 8 walks only the hot-check list while nothing is queued and
// resumes the merged walk after a hot check queues a task. From states
// with tasks waiting, from the instants where hot checks migrate, and
// from a hand-built state where a pass after the hot check pulls the
// task it queued, it must leave the machine exactly as the merged walk
// of all three due lists does.
func TestFireDueDeadlinesMatchesMergedWalk(t *testing.T) {
	var tally phase8Tally

	// Fuzz-generator scenarios stopped at random ticks.
	r := rng.New(8)
	for seed := uint64(1); seed <= 24; seed++ {
		spec := fuzz.Generate(seed)
		m, err := spec.Build(machine.EngineAsync, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			m.Run(1 + int64(r.Intn(int(min(spec.RunMS, 4_000)))))
			tally.compare(t, fmt.Sprintf("gen-%d at %d ms", seed, m.NowMS()), m)
		}
	}

	// Catalog scenarios at the instants where a hot check migrated a
	// task, plus one with tasks waiting throughout.
	for _, name := range []string{"hottask", "large/64cpu/mostly-idle", "engines/steady-state"} {
		spec := scenario.MustNamed(name)
		const runMS = 30_000
		rec := trace.New(0)
		probe, err := spec.Build(machine.EngineAsync, rec)
		if err != nil {
			t.Fatal(err)
		}
		probe.Run(runMS)
		var stops []int64
		for _, ev := range rec.Events() {
			if ev.Kind == trace.Migrate && ev.Detail == sched.MigrateHot.String() &&
				(len(stops) == 0 || stops[len(stops)-1] < ev.TimeMS) {
				stops = append(stops, ev.TimeMS)
			}
		}
		if len(stops) == 0 {
			for ms := int64(1_000); ms < runMS; ms += 3_001 {
				stops = append(stops, ms)
			}
		}
		m, err := spec.Build(machine.EngineAsync, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, at := range stops {
			if i == 12 {
				break
			}
			m.Run(at - m.NowMS())
			tally.compare(t, fmt.Sprintf("%s at %d ms", name, at), m)
		}
	}

	tally.compare(t, "hot exchange, then idle pull", exchangeThenIdlePull(t))

	t.Logf("%d states: %d with tasks waiting, %d where a hot check queued one, %d where a later pass then acted",
		tally.states, tally.queued, tally.hotQueued, tally.laterActed)
	if tally.queued == 0 || tally.hotQueued == 0 || tally.laterActed == 0 {
		t.Errorf("state mix %+v: every kind must occur", tally)
	}
}

// exchangeThenIdlePull builds the state where a pass after a hot check
// acts on the task the check queued. Nothing is queued; node 0 (60 W
// packages) runs one bitcnts on CPU 2, forced past its hot trigger,
// and a memrw on each other CPU, so its hot check exchanges bitcnts
// with CPU 3's memrw and leaves both queued. Node 1 (90 W packages)
// idles, and CPU 6's idle pull is due on the same tick as CPU 2's hot
// check: its energy-balance step pulls bitcnts, since on the larger
// budget its power ratio narrows the gap.
func exchangeThenIdlePull(t *testing.T) *machine.Machine {
	t.Helper()
	m, err := machine.New(machine.Config{
		Engine: machine.EngineAsync, Layout: topology.XSeries445NoSMT(),
		Sched: sched.DefaultConfig(), Seed: 1,
		PackageMaxPowerW: []float64{60, 60, 60, 60, 90, 90, 90, 90},
	})
	if err != nil {
		t.Fatal(err)
	}
	cat := workload.NewCatalog(energy.DefaultTrueModel())
	m.Sched.Migrate(m.Spawn(cat.Bitcnts()), 2, sched.MigrateLoad)
	for _, c := range []topology.CPUID{0, 1, 3} {
		m.Sched.Migrate(m.Spawn(cat.Memrw()), c, sched.MigrateLoad)
	}
	const hotCPU, pullCPU = 2, 6
	at := int64(1_994)
	w := sched.NewWheel(m.Sched.Cfg, 0, m.Cfg.Layout.NumLogical())
	if !w.HotDue(at, hotCPU) || !w.IdlePullDue(at, pullCPU) {
		t.Fatalf("CPU %d's hot check and CPU %d's idle pull not both due at %d ms", hotCPU, pullCPU, at)
	}
	m.Run(at)
	m.Sched.Power[hotCPU].SetThermalState(profile.ExpAvgState{Value: 65, Primed: true})
	if m.Sched.QueuedCount() != 0 || !m.Sched.HotTrigger(hotCPU) || !m.Sched.RQ(pullCPU).Idle() {
		t.Fatalf("hand-built state: queued %d, CPU %d triggered %v, CPU %d idle %v",
			m.Sched.QueuedCount(), hotCPU, m.Sched.HotTrigger(hotCPU), pullCPU, m.Sched.RQ(pullCPU).Idle())
	}
	return m
}
