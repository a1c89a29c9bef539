package fuzz

import (
	"fmt"

	"energysched/internal/counters"
	"energysched/internal/faults"
	"energysched/internal/rng"
	"energysched/internal/scenario"
)

// The scenario generator. Every decision flows from one rng.Source
// seeded with the scenario seed, so Generate(seed) is a pure function:
// the CLI, the CI smoke job, and a developer reproducing a failure all
// see the same scenario for the same seed.

// costBudgetMS bounds a generated scenario's lockstep reference cost
// (logical CPUs × run milliseconds). The lockstep engine steps every
// CPU every millisecond, so this is the knob that keeps a 200-scenario
// smoke run in CI territory.
const costBudgetMS = 160_000

// programs the generator draws from, grouped by behaviour so mixes get
// deliberate variety: CPU-bound antagonists, phase-shifting programs
// whose counter mix drifts across noise epochs, and blockers that
// sleep and wake.
var (
	antagonists = []string{"bitcnts", "memrw", "aluadd", "pushpop", "intmix", "fpmix"}
	phased      = []string{"openssl", "bzip2", "gcc", "grep"}
	blockers    = []string{"bash", "sshd", "httpd"}
)

// Generate builds the scenario for one seed. The result always passes
// Validate (TestGenerateValid pins this across many seeds).
func Generate(seed uint64) scenario.Spec {
	r := rng.New(seed)
	s := scenario.Spec{
		Name: fmt.Sprintf("gen-%d", seed),
		Seed: r.Uint64(),
	}

	// Topology: 1–8 nodes × 1–2 packages × 1–4 cores × 1–2 SMT
	// threads, capped so the lockstep reference stays affordable.
	s.Topology = scenario.TopoSpec{
		Nodes:           1 + r.Intn(4),
		PackagesPerNode: 1 + r.Intn(2),
		CoresPerPackage: []int{1, 1, 2, 2, 4}[r.Intn(5)],
		ThreadsPerCore:  1 + r.Intn(2),
	}
	if r.Bool(0.15) { // occasionally go wide
		s.Topology.Nodes = 1 + r.Intn(8)
	}
	capCPUs(&s, 64)
	layout := s.Topology.Layout()
	nPkg := layout.NumPackages()
	nCPU := layout.NumLogical()

	// Thermal calibrations: homogeneous, heterogeneous-R with a shared
	// time constant (same thermal weight — the shared-weight cache must
	// still be valid), or fully heterogeneous R·C (forces the
	// per-tracker weight fallback).
	switch r.Intn(3) {
	case 1:
		tau := 8 + 14*r.Float64() // seconds, shared
		s.Packages = make([]scenario.PackageSpec, nPkg)
		for i := range s.Packages {
			R := 0.15 + 0.2*r.Float64()
			s.Packages[i] = scenario.PackageSpec{R: round3(R), C: round3(tau / R), AmbientC: 25}
		}
	case 2:
		s.Packages = make([]scenario.PackageSpec, nPkg)
		for i := range s.Packages {
			R := 0.15 + 0.2*r.Float64()
			tau := 5 + 20*r.Float64()
			s.Packages[i] = scenario.PackageSpec{R: round3(R), C: round3(tau / R), AmbientC: 25}
		}
	}

	// Power budgets: absent, temperature-derived, one shared value, or
	// per-package values (rarely including a zero = ratios disabled for
	// that package).
	perCPUW := 8 + 10*r.Float64() // budget per logical CPU, W
	pkgW := func() float64 {
		return round3(perCPUW * float64(layout.Cores()*layout.ThreadsPerPackage) * (0.8 + 0.4*r.Float64()))
	}
	switch r.Intn(5) {
	case 0: // no budgets at all
	case 1:
		s.LimitTempC = round3(33 + 10*r.Float64())
	case 2, 3:
		s.BudgetW = []float64{pkgW()}
	case 4:
		s.BudgetW = make([]float64, nPkg)
		for i := range s.BudgetW {
			s.BudgetW[i] = pkgW()
		}
		if r.Bool(0.2) {
			s.BudgetW[r.Intn(nPkg)] = 0
		}
	}

	hasBudget := len(s.BudgetW) > 0 || s.LimitTempC > 0
	if hasBudget && r.Bool(0.5) {
		s.Throttle = true
		s.Scope = []string{"logical", "core", "package"}[r.Intn(3)]
		if r.Bool(0.15) {
			s.TaskThrottling = true
		}
	}
	if r.Bool(0.25) {
		s.UnitThermal = true
		if s.Throttle && r.Bool(0.7) {
			s.UnitLimitC = round3(40 + 10*r.Float64())
		}
	}

	// Scheduling policy and deadline periods/staggers.
	s.Sched.Policy = []string{"default", "default", "default", "baseline"}[r.Intn(4)]
	if r.Bool(0.4) {
		s.Sched.BalancePeriodMS = []float64{100, 200, 250, 333, 500, 1000}[r.Intn(6)]
	}
	if r.Bool(0.4) {
		s.Sched.HotCheckPeriodMS = []float64{50, 100, 150, 250, 400}[r.Intn(5)]
	}
	if s.UnitThermal && r.Bool(0.75) {
		s.Sched.UnitAware = true
	}

	// DVFS: governor, evaluation period, transition latency, and —
	// sometimes — a random ladder (strictly ascending in both axes).
	if r.Bool(0.4) {
		d := &scenario.DVFSSpec{
			Governor: []string{"performance", "ondemand", "ondemand", "thermal", "thermal"}[r.Intn(5)],
		}
		if r.Bool(0.5) {
			d.EvalPeriodMS = []int{10, 20, 25, 40, 50}[r.Intn(5)]
		}
		if r.Bool(0.4) {
			d.TransitionLatencyMS = []int{-1, 1, 2, 5}[r.Intn(4)]
		}
		if r.Bool(0.35) {
			n := 2 + r.Intn(4)
			f := 900 + float64(r.Intn(4))*100
			v := 0.9 + 0.1*r.Float64()
			for i := 0; i < n; i++ {
				d.Ladder = append(d.Ladder, []float64{round3(f), round3(v)})
				f += 150 + float64(r.Intn(4))*100
				v += 0.05 + 0.1*r.Float64()
			}
		}
		s.DVFS = d
	}

	if r.Bool(0.25) {
		s.MaxQuantumMS = []int{2, 4, 8, 16, 32, 128}[r.Intn(6)]
	}
	if r.Bool(0.5) {
		s.MonitorPeriodMS = []int{100, 250, 500, 1000, 2000}[r.Intn(5)]
	}

	// Workload mix: 0 (all-idle) to 4 groups across the behaviour
	// classes; finite work + respawn makes spawn/respawn storms.
	maxTasks := 2*nCPU + 2
	if maxTasks > 24 {
		maxTasks = 24
	}
	groups := r.Intn(5) // 0 → all-idle machine
	budgetLeft := maxTasks
	for g := 0; g < groups && budgetLeft > 0; g++ {
		var prog string
		switch r.Intn(3) {
		case 0:
			prog = antagonists[r.Intn(len(antagonists))]
		case 1:
			prog = phased[r.Intn(len(phased))]
		default:
			prog = blockers[r.Intn(len(blockers))]
		}
		count := 1 + r.Intn(min(6, budgetLeft))
		budgetLeft -= count
		tg := scenario.TaskGroup{Program: prog, Count: count}
		if r.Bool(0.4) {
			tg.WorkMS = float64(400 + r.Intn(3600))
		}
		s.Workload = append(s.Workload, tg)
	}
	if len(s.Workload) > 0 && r.Bool(0.35) {
		s.Respawn = true
		if !hasFiniteWork(s) {
			// Respawn only matters for finite tasks; make one group
			// churn.
			s.Workload[0].WorkMS = float64(400 + r.Intn(1600))
		}
	}

	// Run length from the lockstep cost budget, shortened when the
	// §2.3 task-throttling policy forces 1 ms quanta on the fast
	// engines too.
	budget := int64(costBudgetMS)
	if s.TaskThrottling {
		budget /= 2
	}
	runMS := budget / int64(nCPU)
	if runMS > 30_000 {
		runMS = 30_000
	}
	if runMS < 2_000 {
		runMS = 2_000
	}
	// Jitter ±30% so monitor/deadline periods land on varied residues.
	s.RunMS = runMS - int64(float64(runMS)*0.3*r.Float64())
	s.Chunks = 1 + r.Intn(4)
	// This draw once set the retired parallel engine's shard count. It
	// stays, discarded, so every generator seed still yields the same
	// spec and fixed-seed campaigns keep covering the same scenarios.
	_ = r.Intn(s.Topology.Nodes)

	// Fault injection: mis-calibrated/drifting estimator weights and a
	// faulty thermal diode feeding the recalibration/fallback loop.
	// Drawn last so pre-fault seeds keep their exact scenarios.
	if r.Bool(0.35) {
		s.Faults = genFaults(r)
	}
	return s
}

// genFaults draws a fault schedule. Always valid: every sensor/recal
// field rides on a residual window, and thresholds stay away from the
// degenerate edges Validate rejects.
func genFaults(r *rng.Source) *faults.Spec {
	f := &faults.Spec{
		// Sensor faults and the recal/fallback loop only act through
		// the residual window, so a generated schedule always has one.
		RecalPeriodMS: []int64{100, 250, 500, 1000}[r.Intn(4)],
	}
	if r.Bool(0.6) {
		f.WeightScale = make([]float64, counters.NumEvents)
		for i := range f.WeightScale {
			f.WeightScale[i] = round3(0.5 + r.Float64())
		}
	}
	if r.Bool(0.4) {
		f.DriftPeriodMS = []int64{250, 500, 1000, 2000}[r.Intn(4)]
		n := 1
		if r.Bool(0.5) {
			n = int(counters.NumEvents)
		}
		f.DriftFactor = make([]float64, n)
		for i := range f.DriftFactor {
			f.DriftFactor[i] = round3(0.9 + 0.2*r.Float64())
		}
		f.DriftSteps = r.Intn(8)
	}
	if r.Bool(0.5) {
		f.DiodeNoiseC = round3(0.5 * r.Float64())
	}
	if r.Bool(0.25) {
		f.DiodeResolutionC = []float64{0.5, 2}[r.Intn(2)]
	}
	if r.Bool(0.3) {
		f.DiodeStuckAfterMS = int64(500 + r.Intn(4000))
	}
	if r.Bool(0.3) {
		f.SampleDropP = round3(0.3 * r.Float64())
	}
	if r.Bool(0.3) {
		f.SampleDelay = 1 + r.Intn(3)
	}
	if r.Bool(0.6) {
		f.RecalRate = round3(0.05 + 0.25*r.Float64())
		f.RecalWarmup = r.Intn(3)
	}
	if r.Bool(0.4) {
		f.FallbackResidualW = round3(5 + 40*r.Float64())
		f.FallbackAfter = 1 + r.Intn(4)
		f.FallbackRecovery = 2 + r.Intn(4)
		f.FallbackScale = round3(0.6 + 0.3*r.Float64())
	}
	return f
}

// EnsureFaults forces a fault schedule onto a generated spec (the CI
// fault-smoke mode, esfuzz -faults): scenarios that already drew one
// keep it; the rest get a deterministic schedule derived from the
// spec's seed, so the run stays reproducible.
func EnsureFaults(s *scenario.Spec) {
	if s.Faults != nil {
		return
	}
	s.Faults = genFaults(rng.New(s.Seed ^ 0xfa170))
}

func hasFiniteWork(s scenario.Spec) bool {
	for _, g := range s.Workload {
		if g.WorkMS > 0 {
			return true
		}
	}
	return false
}

// capCPUs shrinks a spec's topology deterministically, widest
// dimension first, until it has at most max logical CPUs (max ≥ 2), and
// truncates its per-package slices to the packages left.
func capCPUs(s *scenario.Spec, max int) {
	for t := &s.Topology; t.Layout().NumLogical() > max; {
		switch {
		case t.Nodes > 2:
			t.Nodes /= 2
		case t.CoresPerPackage > 1:
			t.CoresPerPackage /= 2
		case t.PackagesPerNode > 1:
			t.PackagesPerNode = 1
		default:
			t.ThreadsPerCore = 1
		}
	}
	resizePackages(s)
}

func round3(v float64) float64 {
	return float64(int64(v*1000+0.5)) / 1000
}
