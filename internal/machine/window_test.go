package machine

import (
	"math"
	"math/rand"
	"testing"

	"energysched/internal/counters"
	"energysched/internal/sched"
	"energysched/internal/thermal"
	"energysched/internal/topology"
	"energysched/internal/trace"
	"energysched/internal/workload"
)

// windowMachine is a hand-built state for the window's local events:
// four single-core packages with a one-second time constant, so metrics
// follow their feeds within a run.
//
//   - CPU 0 runs "ramp": a cool phase and then, forever, a hot one. The
//     phase change is a rate crossing that raises the core's feed until
//     its hot check finds the core past the trigger and CPU 3, idle, a
//     cool destination.
//   - CPUs 1 and 2 run two instances of "cool" at nice 5 and nice 10
//     (75 and 50 ms timeslices, against ramp's 100 ms), so within one
//     window the first slices expire on CPU 2, then CPU 1, then CPU 0:
//     reverse CPU order, and the two first slices of one program land
//     on different CPUs of the placement table.
//
// Nothing blocks, wakes, finishes or queues, so only the hot check and
// the limit end windows on the async engine.
func windowMachine(t *testing.T, e Engine) (*Machine, uint64) {
	t.Helper()
	pol := sched.DefaultConfig()
	pol.EnergyAwarePlacement = false
	props := make([]thermal.Properties, 4)
	for i := range props {
		props[i] = thermal.Properties{R: 0.2, C: 5, AmbientC: 25}
	}
	m := MustNew(Config{
		Engine:           e,
		Layout:           topology.Layout{Nodes: 1, PackagesPerNode: 4, CoresPerPackage: 1, ThreadsPerPackage: 1},
		Sched:            pol,
		Seed:             5,
		PackageProps:     props,
		PackageMaxPowerW: []float64{40},
		Trace:            trace.New(0),
	})
	cat := catalog()
	scaled := func(r counters.Rates, f float64) counters.Rates {
		for i := range r {
			r[i] *= f
		}
		return r
	}
	base := cat.Aluadd().Phases[0].Rates
	ramp := &workload.Program{Name: "ramp", Binary: 901, Phases: []workload.Phase{
		{Name: "cool", Rates: scaled(base, 0.3), MeanDurMS: 1500, Next: []int{1}},
		{Name: "hot", Rates: scaled(base, 1.4), MeanDurMS: 1e9},
	}}
	cool := &workload.Program{Name: "cool", Binary: 902, Phases: []workload.Phase{
		{Name: "cool", Rates: scaled(base, 0.4), MeanDurMS: 1e9, NoiseFrac: 0.05},
	}}
	m.Spawn(ramp)
	m.Spawn(cool).Nice = 5
	m.Spawn(cool).Nice = 10
	for id, cpu := range []topology.CPUID{0, 1, 2} {
		if got := m.TaskCPU(id); got != cpu {
			t.Fatalf("task %d placed on CPU %d, want %d", id, got, cpu)
		}
	}
	return m, cool.Binary
}

// A window steps over busy CPUs' slice expiries and rate crossings in
// (tick, CPU) order and re-checks the hot checks a crossing's new feed
// may arm. Against lockstep: the trace (slice_end/dispatch pairs in
// reverse CPU order, the hot migration after the crossing), the
// snapshot, and the placement table's last first-slice record must
// match, while the async engine ends few windows and steps over the
// local events inside them.
func TestWindowLocalEventsMatchLockstep(t *testing.T) {
	const runMS = 6_000
	lock, coolBin := windowMachine(t, EngineLockstep)
	lock.Run(runMS)
	if lock.MigrationCountByReason(sched.MigrateHot) == 0 {
		t.Fatal("no hot migration on lockstep: the crossing never armed the check")
	}
	lockCSV := traceCSV(t, lock.Cfg.Trace)
	for _, e := range []Engine{EngineAsync, EngineParallel} {
		got, _ := windowMachine(t, e)
		var qs QuantumStats
		got.SetQuantumStats(&qs)
		got.Run(runMS)
		assertEquivalent(t, lock, got)
		if gotCSV := traceCSV(t, got.Cfg.Trace); gotCSV != lockCSV {
			t.Errorf("%s: trace differs from lockstep: %s", e, firstTraceDiff(lockCSV, gotCSV))
		}
		if a, b := lock.Sched.Placement.Lookup(coolBin), got.Sched.Placement.Lookup(coolBin); a != b {
			t.Errorf("%s: placement table holds %v W for cool, lockstep %v W", e, b, a)
		}
		if qs.Interior[HorizonSlice] == 0 || qs.Interior[HorizonRate] == 0 || 4*qs.Quanta > qs.Interior[HorizonSlice]+qs.Interior[HorizonRate] {
			t.Errorf("%s: %d windows stepping over %d slice expiries and %d rate crossings; want several of both per window",
				e, qs.Quanta, qs.Interior[HorizonSlice], qs.Interior[HorizonRate])
		}
		if qs.ByHorizon[HorizonHotDest] == 0 {
			t.Errorf("%s: no window ended at a hot check that could act: %+v", e, qs.ByHorizon)
		}
		t.Logf("%s: %d windows, %d slice expiries and %d rate crossings stepped over", e, qs.Quanta, qs.Interior[HorizonSlice], qs.Interior[HorizonRate])
	}
}

// A live package's thermal nodes settle in pieces of constant power
// (settleLivePackage): each CPU's power changes only at its own local
// events, each piece is one closed-form step per core, and the peak is
// checked at each piece's end. Brute force on one dual-core SMT package
// with chip coupling: random piece sequences, where any subset of the
// four CPUs changes power at each boundary, against per-ms
// thermal.Node.Step calls at the same coupled powers. Temperatures must
// agree within TestEngineEquivalence's tolerance and the peak equal the
// per-ms peak up to it.
func TestPiecewiseThermalSettleBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const tol = 1e-6
	for trial := 0; trial < 200; trial++ {
		props := thermal.Properties{R: 0.05 + 0.5*r.Float64(), C: 1 + 100*r.Float64(), AmbientC: 25}
		m := MustNew(Config{
			Layout:       topology.Layout{Nodes: 1, PackagesPerNode: 1, CoresPerPackage: 2, ThreadsPerPackage: 2},
			Sched:        sched.DefaultConfig(),
			PackageProps: []thermal.Properties{props},
		})
		m.resetPhaseMarkers()
		ref := make([]*thermal.Node, len(m.nodes))
		for core, n := range m.nodes {
			n.TempC = 25 + 60*r.Float64()
			ref[core] = thermal.NewNode(n.Props)
			ref[core].TempC = n.TempC
		}
		m.peakTempC = math.Max(m.nodes[0].TempC, m.nodes[1].TempC)
		peak := m.peakTempC
		raw := make([]float64, len(m.nodes))
		now := m.nowMS
		for n := 1 + r.Intn(12); n > 0; n-- {
			for c := range m.truePower {
				if r.Intn(2) == 0 {
					m.truePower[c] = 60 * r.Float64()
				}
			}
			ms := 1 + r.Int63n(300)
			now += ms
			m.settleLivePackage(0, now)
			for core := range raw {
				raw[core] = 0
				for _, c := range m.Topo.CPUsOfCore(core) {
					raw[core] += m.truePower[int(c)]
				}
			}
			for j := int64(0); j < ms; j++ {
				for core, node := range ref {
					node.Step(m.coupledEffPower(raw, core), 1)
					peak = math.Max(peak, node.TempC)
				}
			}
			for core, node := range ref {
				if d := math.Abs(m.nodes[core].TempC - node.TempC); d > tol {
					t.Fatalf("trial %d: core %d piecewise %v vs per-ms %v", trial, core, m.nodes[core].TempC, node.TempC)
				}
			}
		}
		if d := math.Abs(m.peakTempC - peak); d > tol {
			t.Fatalf("trial %d: piecewise peak %v vs per-ms %v", trial, m.peakTempC, peak)
		}
	}
}
