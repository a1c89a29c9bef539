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
	// the row was last raised. The 1024-CPU saturated regime is absent:
	// every core is above its hot trigger by then, so a hot check that
	// could act is due every millisecond and its quanta sit at 1 ms.
	measured := map[string]float64{
		"engines/idle-heavy":        4.98,
		"engines/steady-state":      15.29,
		"engines/churn-heavy":       6.84,
		"engines/dvfs-thermal":      2.25,
		"large/64cpu/mostly-idle":   4.50,
		"large/256cpu/mostly-idle":  4.59,
		"large/1024cpu/mostly-idle": 4.04,
		"large/256cpu/wide-idle":    3.26,
		"large/1024cpu/wide-idle":   3.26,
		"large/64cpu/saturated":     5.73,
		"large/256cpu/saturated":    2.17,
	}
	for _, sc := range append(engineBenchScenarios(), largeBenchScenarios()...) {
		t.Run(strings.ReplaceAll(sc.Name, "/", "_"), func(t *testing.T) {
			want, ok := measured[sc.Name]
			if !ok {
				t.Skip("every core is above its hot trigger: quanta sit at 1 ms")
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
