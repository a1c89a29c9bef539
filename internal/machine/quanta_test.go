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
	// the row was last raised. The 1024-CPU saturated regime is absent:
	// its quanta sit near 1 ms, bound by the CPU-local events of 1 024
	// busy CPUs — rate crossings (99% of quanta in the timed chunk) and,
	// by 30 s, timeslice expiries (82%) — so no floor could trip.
	measured := map[string]float64{
		"engines/idle-heavy":        6.97,
		"engines/steady-state":      15.29,
		"engines/churn-heavy":       6.97,
		"engines/dvfs-thermal":      9.26,
		"large/64cpu/mostly-idle":   6.99,
		"large/256cpu/mostly-idle":  6.99,
		"large/1024cpu/mostly-idle": 5.78,
		"large/256cpu/wide-idle":    4.15,
		"large/1024cpu/wide-idle":   4.15,
		"large/64cpu/saturated":     7.02,
		"large/256cpu/saturated":    2.28,
	}
	for _, sc := range append(engineBenchScenarios(), largeBenchScenarios()...) {
		t.Run(strings.ReplaceAll(sc.Name, "/", "_"), func(t *testing.T) {
			want, ok := measured[sc.Name]
			if !ok {
				t.Skip("CPU-local rate crossings and slice expiries hold quanta near 1 ms")
			}
			m := sc.New(machine.Engine(0)) // the default engine
			m.Run(sc.WarmupMS)
			qs := countQuanta(m, sc.SimChunkMS)
			t.Logf("%s: %d quanta over %d ms, %.2f ms per quantum", sc.Name, qs.Quanta, sc.SimChunkMS, qs.MeanMS())
			if avg := qs.MeanMS(); avg < want/2 {
				t.Errorf("%s: %.2f ms per quantum, want at least half of the measured %.2f", sc.Name, avg, want)
			}
		})
	}

	// The steady state, after 30 s. On the saturated machines nearly
	// every core is past its hot trigger, so a hot check is due on
	// almost every tick, and only the destination side (no core
	// considerably cooler) lets the planner step over them. On the DVFS
	// machine the thermal governor has settled and its evaluations,
	// due every 2.5 ms, are provable no-ops. The 256-CPU and DVFS rows
	// also pin which horizons bound their quanta, each share to within
	// five points.
	steady := []struct {
		name      string
		measureMS int64
		want      float64
		mix       map[machine.Horizon]float64
	}{
		{name: "large/64cpu/saturated", measureMS: 4_000, want: 3.29},
		{name: "large/256cpu/saturated", measureMS: 4_000, want: 1.53, mix: map[machine.Horizon]float64{
			machine.HorizonSlice:   0.535,
			machine.HorizonRate:    0.460,
			machine.HorizonHotDest: 0.003,
		}},
		{name: "engines/dvfs-thermal", measureMS: 15_000, want: 8.26, mix: map[machine.Horizon]float64{
			machine.HorizonRate:     0.483,
			machine.HorizonSlice:    0.307,
			machine.HorizonWake:     0.106,
			machine.HorizonStop:     0.102,
			machine.HorizonGovernor: 0,
		}},
	}
	for _, row := range steady {
		t.Run(strings.ReplaceAll(row.name, "/", "_")+"_30s", func(t *testing.T) {
			m := fromCatalog(row.name, 0, 0, false, false).New(machine.Engine(0))
			m.Run(30_000)
			qs := countQuanta(m, row.measureMS)
			t.Logf("%s after 30 s: %d quanta over %d ms, %.2f ms per quantum", row.name, qs.Quanta, row.measureMS, qs.MeanMS())
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
