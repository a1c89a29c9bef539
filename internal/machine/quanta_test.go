package machine_test

import (
	"math"
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
	// the row was last raised. Busy CPUs' slice expiries and rate
	// crossings no longer end quanta where windows are on (window.go),
	// so the saturated rows, still below their hot triggers in this
	// chunk, step it in one window or a few. Nor do blocks while nothing
	// is queued, so the idle-dominated rows' windows end at wake-ups.
	measured := map[string]float64{
		"engines/idle-heavy":        39.06,
		"engines/steady-state":      23.75,
		"engines/churn-heavy":       8.83,
		"engines/dvfs-thermal":      69.44,
		"large/64cpu/mostly-idle":   43.48,
		"large/256cpu/mostly-idle":  43.86,
		"large/1024cpu/mostly-idle": 38.17,
		"large/256cpu/wide-idle":    20.49,
		"large/1024cpu/wide-idle":   20.75,
		"large/64cpu/saturated":     5000,
		"large/256cpu/saturated":    5000,
		"large/1024cpu/saturated":   1250,
	}
	for _, sc := range append(engineBenchScenarios(), largeBenchScenarios()...) {
		t.Run(strings.ReplaceAll(sc.Name, "/", "_"), func(t *testing.T) {
			want := measured[sc.Name]
			m := sc.New(machine.Engine(0)) // the default engine
			m.Run(sc.WarmupMS)
			qs := countQuanta(m, sc.SimChunkMS)
			t.Logf("%s: %d quanta over %d ms, %.2f ms per quantum; stepped over %d stops", sc.Name, qs.Quanta, sc.SimChunkMS, qs.MeanMS(), qs.Interior[machine.HorizonStop])
			if avg := qs.MeanMS(); avg < want/2 {
				t.Errorf("%s: %.2f ms per quantum, want at least half of the measured %.2f", sc.Name, avg, want)
			}
		})
	}

	// The steady state, after 30 s. On the saturated machines nearly
	// every core is past its hot trigger, so a hot check is due on
	// almost every tick, and only the destination side (no core
	// considerably cooler) lets the planner step over them; the windows
	// end at the few that could act and at the warm-up ends of the tasks
	// they migrate, while slice expiries and rate crossings bind none.
	// On the DVFS machine the thermal governor has settled and its
	// evaluations, due every 2.5 ms, are provable no-ops, and with no
	// quantum cap and nothing queued only the tasks' wake-ups end
	// windows: their blocks are local stops, bar the few in a crossing
	// tick run ahead (the one limit window is the end of the run). The 256-CPU and
	// DVFS rows also pin which horizons bound their quanta, each share
	// to within five points.
	steady := []struct {
		name      string
		measureMS int64
		want      float64
		mix       map[machine.Horizon]float64
	}{
		{name: "large/64cpu/saturated", measureMS: 4_000, want: 666.67},
		{name: "large/256cpu/saturated", measureMS: 4_000, want: 80.0, mix: map[machine.Horizon]float64{
			machine.HorizonHotDest: 0.86,
			machine.HorizonWarmup:  0.12,
			machine.HorizonLimit:   0.02,
		}},
		{name: "large/1024cpu/saturated", measureMS: 4_000, want: 29.63},
		{name: "engines/dvfs-thermal", measureMS: 15_000, want: 71.09, mix: map[machine.Horizon]float64{
			machine.HorizonStop:     0.028,
			machine.HorizonWake:     0.967,
			machine.HorizonLimit:    0.005,
			machine.HorizonGovernor: 0,
		}},
	}
	for _, row := range steady {
		t.Run(strings.ReplaceAll(row.name, "/", "_")+"_30s", func(t *testing.T) {
			m := fromCatalog(row.name, 0, 0, false).New(machine.Engine(0))
			m.Run(30_000)
			qs := countQuanta(m, row.measureMS)
			t.Logf("%s after 30 s: %d quanta over %d ms, %.2f ms per quantum; stepped over %d slice expiries, %d rate crossings, %d stops",
				row.name, qs.Quanta, row.measureMS, qs.MeanMS(), qs.Interior[machine.HorizonSlice], qs.Interior[machine.HorizonRate], qs.Interior[machine.HorizonStop])
			if avg := qs.MeanMS(); avg < row.want/2 {
				t.Errorf("%s: %.2f ms per quantum, want at least half of the measured %.2f", row.name, avg, row.want)
			}
			for h := machine.Horizon(0); h < machine.NumHorizons; h++ {
				if qs.ByHorizon[h] > 0 {
					t.Logf("  %-13s %5d quanta (%.1f%%)", h, qs.ByHorizon[h], 100*qs.Share(h))
				}
				if row.mix == nil {
					continue
				}
				if got, want := qs.Share(h), row.mix[h]; math.Abs(got-want) > 0.05 {
					t.Errorf("%s: %s bound %.1f%% of quanta, want %.1f%%", row.name, h, 100*got, 100*want)
				}
			}
		})
	}
}

// countQuanta runs m for ms milliseconds with quantum attribution on.
func countQuanta(m *machine.Machine, ms int64) *machine.QuantumStats {
	qs := new(machine.QuantumStats)
	m.SetQuantumStats(qs)
	m.Run(ms)
	m.SetQuantumStats(nil)
	return qs
}
