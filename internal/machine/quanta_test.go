package machine_test

import (
	"strings"
	"testing"

	"energysched/internal/machine"
)

// TestBenchQuantaLength guards the planner against structural
// regressions — quanta collapsing toward the 1 ms lockstep tick, or a
// new horizon that fires every few milliseconds — without timing
// anything. For each benchmark regime it runs the warm-up on the default
// engine, then counts the planned quanta over one timed chunk. The
// counts are deterministic for the catalog seed, so the floor of half
// the measured average quantum length can only trip on a real change in
// what bounds the quanta.
func TestBenchQuantaLength(t *testing.T) {
	// Average quantum length (ms) over the timed chunk, measured when
	// the test was added. The 256- and 1024-CPU saturated regimes are
	// absent: their quanta already sit at 1 ms (ROADMAP item 5).
	measured := map[string]float64{
		"engines/idle-heavy":        4.98,
		"engines/steady-state":      9.79,
		"engines/churn-heavy":       6.84,
		"engines/dvfs-thermal":      2.05,
		"large/64cpu/mostly-idle":   4.50,
		"large/256cpu/mostly-idle":  4.59,
		"large/1024cpu/mostly-idle": 4.04,
		"large/256cpu/wide-idle":    3.26,
		"large/1024cpu/wide-idle":   3.26,
		"large/64cpu/saturated":     1.51,
	}
	for _, sc := range append(engineBenchScenarios(), largeBenchScenarios()...) {
		t.Run(strings.ReplaceAll(sc.Name, "/", "_"), func(t *testing.T) {
			want, ok := measured[sc.Name]
			if !ok {
				t.Skip("saturated at 256+ CPUs: quanta already sit at 1 ms")
			}
			m := sc.New(machine.Engine(0)) // the default engine
			m.Run(sc.WarmupMS)
			q := m.RunCountingQuanta(sc.SimChunkMS)
			avg := float64(sc.SimChunkMS) / float64(q)
			t.Logf("%s: %d quanta over %d ms, %.2f ms per quantum", sc.Name, q, sc.SimChunkMS, avg)
			if avg < want/2 {
				t.Errorf("%s: %.2f ms per quantum, want at least half of the measured %.2f", sc.Name, avg, want)
			}
		})
	}
}
