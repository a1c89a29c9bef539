package machine_test

import (
	"fmt"
	"testing"

	"energysched/internal/fuzz"
	"energysched/internal/machine"
	"energysched/internal/scenario"
)

// From the planner's running-task scan to the window's end, the
// hot-check, governor and throttle predictions and the window's pops
// read each busy CPU's feed from a per-piece cache, refreshed where a
// piece's execution changes the rates: after a pop's commit and after
// a crossing tick run ahead (eagerTick). With the check on, every
// cached read recomputes the feed from the rates and panics on any
// difference. The saturated machines cross rates and heat through
// their hot triggers, the DVFS machine runs the thermal governor, and
// the generator's scenarios add SMT, throttles, blockers and respawns.
func TestFeedCacheMatchesRecomputed(t *testing.T) {
	run := func(t *testing.T, spec scenario.Spec, ms int64) {
		t.Helper()
		m, err := spec.Build(machine.Engine(0), nil)
		if err != nil {
			t.Fatal(err)
		}
		m.VerifyFeedCache()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: %v", spec.Name, r)
			}
		}()
		m.Run(ms)
	}
	for _, row := range []struct {
		name string
		ms   int64
	}{
		{"large/64cpu/saturated", 35_000},
		{"large/256cpu/saturated", 40_000},
		{"engines/dvfs-thermal", 20_000},
	} {
		t.Run(row.name, func(t *testing.T) {
			run(t, scenario.MustNamed(row.name), row.ms)
		})
	}
	for seed := uint64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("gen-%d", seed), func(t *testing.T) {
			spec := fuzz.Generate(seed)
			run(t, spec, spec.RunMS)
		})
	}
}
