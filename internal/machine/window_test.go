package machine

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
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
	got, _ := windowMachine(t, EngineAsync)
	var qs QuantumStats
	got.SetQuantumStats(&qs)
	got.Run(runMS)
	assertEquivalent(t, lock, got)
	if gotCSV := traceCSV(t, got.Cfg.Trace); gotCSV != lockCSV {
		t.Errorf("trace differs from lockstep: %s", firstTraceDiff(lockCSV, gotCSV))
	}
	if a, b := lock.Sched.Placement.Lookup(coolBin), got.Sched.Placement.Lookup(coolBin); a != b {
		t.Errorf("placement table holds %v W for cool, lockstep %v W", b, a)
	}
	if qs.Interior[HorizonSlice] == 0 || qs.Interior[HorizonRate] == 0 || 4*qs.Quanta > qs.Interior[HorizonSlice]+qs.Interior[HorizonRate] {
		t.Errorf("%d windows stepping over %d slice expiries and %d rate crossings; want several of both per window",
			qs.Quanta, qs.Interior[HorizonSlice], qs.Interior[HorizonRate])
	}
	if qs.ByHorizon[HorizonHotDest] == 0 {
		t.Errorf("no window ended at a hot check that could act: %+v", qs.ByHorizon)
	}
	t.Logf("%d windows, %d slice expiries and %d rate crossings stepped over", qs.Quanta, qs.Interior[HorizonSlice], qs.Interior[HorizonRate])
}

// A live package's thermal nodes settle in pieces of constant power
// (settleLivePackage): each CPU's power changes only at its own local
// events, each piece is one closed-form step per core, and the peak is
// checked at each piece's end. Brute force on one dual-core SMT package
// with chip coupling: random piece sequences, where any subset of the
// four CPUs changes power at each boundary, against per-ms
// thermal.Node.Step calls at the same coupled powers. Every other trial
// adds §7 unit hotspots, each CPU holding random per-unit powers per
// piece, against per-ms StepOver calls riding on the per-ms core
// temperature, as the lockstep engine steps them. Core and unit
// temperatures must agree within TestEngineEquivalence's tolerance and
// the peak equal the per-ms peak up to it.
func TestPiecewiseThermalSettleBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const tol = 1e-6
	for trial := 0; trial < 200; trial++ {
		props := thermal.Properties{R: 0.05 + 0.5*r.Float64(), C: 1 + 100*r.Float64(), AmbientC: 25}
		unitsOn := trial%2 == 1
		m := MustNew(Config{
			Layout:       topology.Layout{Nodes: 1, PackagesPerNode: 1, CoresPerPackage: 2, ThreadsPerPackage: 2},
			Sched:        sched.DefaultConfig(),
			PackageProps: []thermal.Properties{props},
			UnitThermal:  unitsOn,
		})
		m.resetPhaseMarkers()
		ref := make([]*thermal.Node, len(m.nodes))
		refUnits := make([][]*thermal.Node, len(m.nodes))
		for core, n := range m.nodes {
			n.TempC = 25 + 60*r.Float64()
			ref[core] = thermal.NewNode(n.Props)
			ref[core].TempC = n.TempC
			if unitsOn {
				for _, un := range m.unitNodes[core] {
					un.TempC = n.TempC + 10*r.Float64()
					cp := *un
					refUnits[core] = append(refUnits[core], &cp)
				}
			}
		}
		m.peakTempC = math.Max(m.nodes[0].TempC, m.nodes[1].TempC)
		peak := m.peakTempC
		raw := make([]float64, len(m.nodes))
		now := m.nowMS
		for n := 1 + r.Intn(12); n > 0; n-- {
			for c := range m.truePower {
				if r.Intn(2) == 0 {
					m.truePower[c] = 60 * r.Float64()
					if unitsOn {
						for u := range m.unitPowerW[c] {
							m.unitPowerW[c][u] = 20 * r.Float64()
						}
					}
				}
			}
			ms := 1 + r.Int63n(300)
			now += ms
			// The settle reads the powers the CPUs hold (the first
			// settle of the quantum holds the rates' instead), and the
			// reference reads them after it.
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
					for u, un := range refUnits[core] {
						un.StepOver(m.coreUnitW(core, u), 1, node.TempC)
					}
				}
			}
			for core, node := range ref {
				if d := math.Abs(m.nodes[core].TempC - node.TempC); d > tol {
					t.Fatalf("trial %d: core %d piecewise %v vs per-ms %v", trial, core, m.nodes[core].TempC, node.TempC)
				}
				for u, un := range refUnits[core] {
					if got := m.unitNodes[core][u].TempC; math.Abs(got-un.TempC) > tol {
						t.Fatalf("trial %d: core %d unit %d piecewise %v vs per-ms %v", trial, core, u, got, un.TempC)
					}
				}
			}
		}
		if d := math.Abs(m.peakTempC - peak); d > tol {
			t.Fatalf("trial %d: piecewise peak %v vs per-ms %v", trial, m.peakTempC, peak)
		}
	}
}

// Machines with §7 unit hotspots or §2.3 task throttling step windows
// like every other async machine: no quantum ends at a rate crossing,
// and the windows step over busy CPUs' local events. The logged mean
// quantum compares against the quanta these rows stepped when every
// local event still ended one on such machines: unit-thermal 21.1 ms,
// unit-sparse 47.8 ms, dvfs-unit-thermal 3.9 ms, task-throttling
// 5.0 ms.
func TestWindowsOnUnitAndTaskThrottleMachines(t *testing.T) {
	rows := map[string]bool{"unit-thermal": true, "unit-sparse": true, "dvfs-unit-thermal": true, "task-throttling": true}
	for _, sc := range engineScenarios() {
		if !rows[sc.name] {
			continue
		}
		delete(rows, sc.name)
		m := sc.build(EngineAsync)
		var qs QuantumStats
		m.SetQuantumStats(&qs)
		m.Run(sc.runMS)
		t.Logf("%s: %d quanta, %.1f ms per quantum; stepped over %d slice expiries and %d rate crossings",
			sc.name, qs.Quanta, qs.MeanMS(), qs.Interior[HorizonSlice], qs.Interior[HorizonRate])
		if n := qs.ByHorizon[HorizonRate]; n != 0 {
			t.Errorf("%s: %d quanta ended at a rate crossing, want 0", sc.name, n)
		}
		if qs.Interior[HorizonSlice]+qs.Interior[HorizonRate] == 0 {
			t.Errorf("%s: no window stepped over a slice expiry or rate crossing", sc.name)
		}
	}
	for name := range rows {
		t.Errorf("scenario %s missing from engineScenarios", name)
	}
}

// unitRampMachine is a hand-built state for the unit-temperature
// re-check: one CPU with §7 unit hotspots under unit throttling, running
// a program that alternates a cool and a hot integer phase, at 0.4 and
// hot times intmix's rates. Each cool→hot crossing inside a window
// raises the int unit's power well past what the window's plan bounded,
// so the unit reaches its limit within the window unless the crossing
// re-derives the bound.
func unitRampMachine(e Engine, hot float64) *Machine {
	pol := sched.DefaultConfig()
	pol.HotTaskMigration = false
	m := MustNew(Config{
		Engine:           e,
		Layout:           topology.Layout{Nodes: 1, PackagesPerNode: 1, CoresPerPackage: 1, ThreadsPerPackage: 1},
		Sched:            pol,
		Seed:             3,
		PackageMaxPowerW: []float64{500},
		ThrottleEnabled:  true,
		UnitThermal:      true,
		UnitLimitC:       40,
		Trace:            trace.New(0),
	})
	base := catalog().Intmix().Phases[0].Rates
	scaled := func(f float64) counters.Rates {
		r := base
		for i := range r {
			r[i] *= f
		}
		return r
	}
	m.Spawn(&workload.Program{Name: "intramp", Binary: 903, Phases: []workload.Phase{
		{Name: "cool", Rates: scaled(0.4), MeanDurMS: 600, Next: []int{1}},
		{Name: "hot", Rates: scaled(hot), MeanDurMS: 600, Next: []int{0}},
	}})
	return m
}

// A true-power change inside a window re-derives its package's unit
// horizon (recheckUnits): the windows end ahead of the unit throttle's
// engagements, which come out at lockstep's ticks. The ramp case runs
// the machine as built; the eager-tick case pins the re-check of a
// crossing tick run ahead (eagerTick), whose mixed power holds for that
// one tick only.
func TestWindowUnitRecheckMatchesLockstep(t *testing.T) {
	t.Run("ramp", func(t *testing.T) {
		const runMS = 12_000
		lock := unitRampMachine(EngineLockstep, 1.6)
		lock.Run(runMS)
		lockCSV := traceCSV(t, lock.Cfg.Trace)
		if !strings.Contains(lockCSV, "throttle_on") {
			t.Fatal("the unit throttle never engaged on lockstep")
		}
		got := unitRampMachine(EngineAsync, 1.6)
		var qs QuantumStats
		got.SetQuantumStats(&qs)
		got.Run(runMS)
		assertEquivalent(t, lock, got)
		if gotCSV := traceCSV(t, got.Cfg.Trace); gotCSV != lockCSV {
			t.Errorf("trace differs from lockstep: %s", firstTraceDiff(lockCSV, gotCSV))
		}
		if qs.Interior[HorizonRate] == 0 || qs.ByHorizon[HorizonUnit] == 0 {
			t.Errorf("%d rate crossings stepped over, %d windows ended at the unit horizon; want both", qs.Interior[HorizonRate], qs.ByHorizon[HorizonUnit])
		}
		t.Logf("%d quanta (%d at the unit horizon), %.1f ms per quantum, %d rate crossings stepped over",
			qs.Quanta, qs.ByHorizon[HorizonUnit], qs.MeanMS(), qs.Interior[HorizonRate])
	})

	// The hottest unit is lifted to just below its limit in the cool
	// tick before a crossing into a hot phase at 8× intmix's rates: the
	// cool power bounds no unit move (the unit sits above every target
	// it can reach), so only the re-check of the crossing tick, run
	// ahead, can end the window before the unit throttle engages right
	// after that tick. The lift decays by the unit's per-ms retention a,
	// so the lifted temperatures follow from the unlifted ones of a
	// branch.
	t.Run("eager-tick", func(t *testing.T) {
		const hot = 8
		probe := unitRampMachine(EngineLockstep, hot)
		limit := probe.unitThrottles[0].LimitW
		var at int64 = -1
		var u int
		var lift float64
		for at < 0 && probe.NowMS() < 12_000 {
			probe.Run(1)
			w := probe.dispatches[0].task.work
			if rh := w.RateHorizonMS(); w.PhaseName() != "cool" || probe.unitThrottles[0].Engaged() || rh <= 1 || rh >= 1.3 {
				continue
			}
			units := probe.unitNodes[0]
			u = 0
			for i, un := range units {
				if un.TempC > units[u].TempC {
					u = i
				}
			}
			br, err := probe.Branch(nil)
			if err != nil {
				t.Fatal(err)
			}
			now := units[u].TempC
			br.Run(1)
			before := br.unitNodes[0][u].TempC
			br.Run(1)
			after := br.unitNodes[0][u].TempC
			a := units[u].Props.DecayPerMS()
			lift = (2*limit - before - after) / (a + a*a)
			if now+lift < limit && before+lift*a < limit && after+lift*a*a > limit {
				at = probe.NowMS()
			}
		}
		if at < 0 {
			t.Fatal("no cool-to-hot crossing a tick ahead that can lift a unit through its limit")
		}

		const runMS = 1_000
		run := func(e Engine) (*Machine, string) {
			m := unitRampMachine(e, hot)
			m.Run(at)
			m.unitNodes[0][u].TempC += lift
			m.Run(runMS)
			return m, traceCSV(t, m.Cfg.Trace)
		}
		lock, lockCSV := run(EngineLockstep)
		if !strings.Contains(lockCSV, "\n"+strconv.FormatInt(at+2, 10)+",throttle_on,") {
			t.Fatalf("lockstep did not engage right after the crossing tick at %d ms", at+1)
		}
		got, gotCSV := run(EngineAsync)
		assertEquivalent(t, lock, got)
		if gotCSV != lockCSV {
			t.Errorf("trace differs from lockstep: %s", firstTraceDiff(lockCSV, gotCSV))
		}
	})
}
