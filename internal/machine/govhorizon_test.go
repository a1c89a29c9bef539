package machine_test

import (
	"bytes"
	"testing"

	"energysched/internal/dvfs"
	"energysched/internal/machine"
	"energysched/internal/scenario"
	"energysched/internal/sched"
	"energysched/internal/trace"
)

// Under the thermal governor the planner steps over evaluations that
// provably keep the P-state, through the warm-up transient (the metric
// climbs toward the down threshold) and the settled state alike. The
// async engine must still decide, trace and keep every utilization
// window exactly as lockstep, which evaluates on every grid instant of
// an occupied CPU, while firing only a fraction of the grid.
func TestGovernorHorizonSkipsNoOpEvals(t *testing.T) {
	const runMS = 20_000
	switches := int64(0)
	for _, seed := range []uint64{1, 2, 3, 7} {
		spec := scenario.MustNamed("engines/dvfs-thermal")
		spec.Seed = seed
		run := func(e machine.Engine) (*machine.Machine, []byte) {
			rec := trace.New(0)
			m, err := spec.Build(e, rec)
			if err != nil {
				t.Fatal(err)
			}
			m.Run(runMS)
			var buf bytes.Buffer
			if err := rec.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			return m, buf.Bytes()
		}
		lock, lockCSV := run(machine.EngineLockstep)
		ref := lock.Snapshot()
		switches += ref.PStateSwitches
		grid := int64(0)
		for ms := int64(0); ms < runMS; ms++ {
			for c := 0; c < lock.Cfg.Layout.NumLogical(); c++ {
				if (ms+int64(c)*sched.GovStaggerMS)%dvfs.DefaultEvalPeriodMS == 0 {
					grid++
				}
			}
		}
		got, gotCSV := run(machine.EngineAsync)
		for _, d := range machine.DiffSnapshots(ref, got.Snapshot(), 1e-6) {
			t.Errorf("seed %d vs lockstep: %s", seed, d)
		}
		if !bytes.Equal(lockCSV, gotCSV) {
			t.Errorf("seed %d: trace differs from lockstep", seed)
		}
		// Firing at every occupied CPU's instants would reach over
		// nine tenths of the grid; the skips leave under one.
		if _, _, _, gov := got.DeadlineFires(); gov*5 > grid {
			t.Errorf("seed %d: %d governor evaluations fired of %d on the grid; want under a fifth", seed, gov, grid)
		}
	}
	if switches == 0 {
		t.Fatal("no P-state switch on any seed: the governor never acted")
	}
}
