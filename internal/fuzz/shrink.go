package fuzz

import (
	"fmt"

	"energysched/internal/scenario"
)

// The greedy shrinker: given a failing spec and a predicate that
// reports whether a candidate still fails, repeatedly try the cheapest
// simplifications — drop tasks, shrink the topology, shorten the run,
// simplify the ladder and the optional subsystems — keeping any
// candidate that still fails, until a full pass yields no progress or
// the attempt budget runs out.

// ShrinkBudget caps the number of predicate evaluations one Shrink call
// may spend. Each evaluation is four engine runs, so the cap bounds
// minimization wall-clock.
const ShrinkBudget = 250

// Shrink minimizes spec under stillFails. It returns the smallest
// failing spec found and the number of predicate calls spent. The
// predicate is never called on the input spec itself — the caller has
// already established it fails.
func Shrink(spec scenario.Spec, stillFails func(scenario.Spec) bool) (scenario.Spec, int) {
	calls := 0
	try := func(cand scenario.Spec) bool {
		if calls >= ShrinkBudget {
			return false
		}
		calls++
		return stillFails(cand)
	}

	cur := spec
	for progress := true; progress && calls < ShrinkBudget; {
		progress = false
		for _, cand := range candidates(cur) {
			if try(cand) {
				cur = cand
				progress = true
				break // restart the candidate list from the smaller spec
			}
		}
	}
	cur.Name = spec.Name + "-min"
	return cur, calls
}

// candidates returns the one-step simplifications of a spec, cheapest
// (biggest expected cost reduction) first.
func candidates(s scenario.Spec) []scenario.Spec {
	var out []scenario.Spec
	add := func(c scenario.Spec) { out = append(out, c) }

	// 1. Drop whole task groups, then halve group counts.
	for i := range s.Workload {
		c := clone(s)
		c.Workload = append(append([]scenario.TaskGroup(nil), s.Workload[:i]...), s.Workload[i+1:]...)
		add(c)
	}
	for i, g := range s.Workload {
		if g.Count > 1 {
			c := clone(s)
			c.Workload[i].Count = g.Count / 2
			add(c)
		}
	}

	// 2. Shrink the topology. Per-package slices must shrink with it.
	if s.Topology.Nodes > 1 {
		c := clone(s)
		c.Topology.Nodes /= 2
		resizePackages(&c)
		add(c)
	}
	if s.Topology.PackagesPerNode > 1 {
		c := clone(s)
		c.Topology.PackagesPerNode = 1
		resizePackages(&c)
		add(c)
	}
	if s.Topology.CoresPerPackage > 1 {
		c := clone(s)
		c.Topology.CoresPerPackage /= 2
		add(c)
	}
	if s.Topology.ThreadsPerCore > 1 {
		c := clone(s)
		c.Topology.ThreadsPerCore = 1
		add(c)
	}

	// 3. Shorten the run, un-chunk it.
	if s.RunMS > 500 {
		c := clone(s)
		c.RunMS = s.RunMS / 2
		add(c)
	}
	if s.Chunks > 1 {
		c := clone(s)
		c.Chunks = 1
		add(c)
	}

	// 4. Simplify the ladder and the optional subsystems.
	if s.DVFS != nil {
		if len(s.DVFS.Ladder) > 0 {
			c := clone(s)
			c.DVFS.Ladder = nil // default ladder
			add(c)
		}
		c := clone(s)
		c.DVFS = nil
		add(c)
	}
	if s.Respawn {
		c := clone(s)
		c.Respawn = false
		add(c)
	}
	if s.MonitorPeriodMS != 0 {
		c := clone(s)
		c.MonitorPeriodMS = 0
		add(c)
	}
	if s.TaskThrottling {
		c := clone(s)
		c.TaskThrottling = false
		add(c)
	}
	if s.UnitThermal {
		c := clone(s)
		c.UnitThermal = false
		c.UnitLimitC = 0
		c.Sched.UnitAware = false
		add(c)
	}
	if s.Throttle {
		c := clone(s)
		c.Throttle = false
		c.TaskThrottling = false
		add(c)
	}
	if s.MaxQuantumMS != 0 {
		c := clone(s)
		c.MaxQuantumMS = 0
		add(c)
	}
	if s.Sched.BalancePeriodMS != 0 || s.Sched.HotCheckPeriodMS != 0 {
		c := clone(s)
		c.Sched.BalancePeriodMS = 0
		c.Sched.HotCheckPeriodMS = 0
		add(c)
	}
	if len(s.Packages) > 0 {
		c := clone(s)
		c.Packages = nil // reference calibration everywhere
		add(c)
	}
	if len(s.BudgetW) > 1 {
		c := clone(s)
		c.BudgetW = []float64{s.BudgetW[0]}
		add(c)
	}

	// Only offer candidates that still build: a shrink step must never
	// trade an engine divergence for a config error.
	valid := out[:0]
	for _, c := range out {
		if c.Validate() == nil {
			valid = append(valid, c)
		}
	}
	return valid
}

// resizePackages truncates per-package slices after a topology shrink.
func resizePackages(s *scenario.Spec) {
	nPkg := s.Topology.Layout().NumPackages()
	if len(s.Packages) > nPkg {
		s.Packages = s.Packages[:nPkg]
	}
	if len(s.BudgetW) > nPkg {
		s.BudgetW = s.BudgetW[:nPkg]
	}
}

// clone deep-copies a spec so candidate mutations never alias.
func clone(s scenario.Spec) scenario.Spec {
	c := s
	c.Workload = append([]scenario.TaskGroup(nil), s.Workload...)
	c.Packages = append([]scenario.PackageSpec(nil), s.Packages...)
	c.BudgetW = append([]float64(nil), s.BudgetW...)
	if s.DVFS != nil {
		d := *s.DVFS
		d.Ladder = append([][]float64(nil), s.DVFS.Ladder...)
		c.DVFS = &d
	}
	return c
}

// describe summarizes a spec for progress logs.
func describe(s scenario.Spec) string {
	return fmt.Sprintf("%s: %dx%dx%dx%d cpus=%d tasks=%d run=%dms throttle=%v dvfs=%v unit=%v",
		s.Name, s.Topology.Nodes, s.Topology.PackagesPerNode, s.Topology.CoresPerPackage,
		s.Topology.ThreadsPerCore, s.Topology.Layout().NumLogical(), s.TotalTasks(),
		s.RunMS, s.Throttle, s.DVFS != nil, s.UnitThermal)
}
