package sched

import (
	"math"

	"energysched/internal/profile"
	"energysched/internal/topology"
)

// PlaceNewTask implements the §4.6 initial task placement. It seeds the
// task's energy profile from the placement table (keyed by the binary's
// inode number; unknown binaries get the default value), chooses a CPU,
// and enqueues the task there. It returns the chosen CPU.
//
// Load comes first: "a CPU is only eligible for running the new task if
// there is no other CPU currently running fewer tasks". Among the
// eligible CPUs, the energy-aware policy picks the one whose runqueue
// power ratio, *including the new task*, comes closest to the machine-
// wide average ratio — hot tasks land on cool CPUs and vice versa. With
// the policy disabled, eligible CPUs are used round-robin, approximating
// vanilla Linux fork/exec balancing.
func (s *Scheduler) PlaceNewTask(t *Task) topology.CPUID {
	estWatts := s.Placement.Lookup(t.Binary)
	if t.Profile == nil || !t.Profile.Primed() {
		t.Profile = profile.NewSeededTaskProfile(estWatts)
	}
	if t.Units != nil && !t.Units.Primed() {
		t.Units.Seed(estWatts)
	}

	minLen := math.MaxInt32
	for _, rq := range s.RQs {
		if l := rq.Len(); l < minLen {
			minLen = l
		}
	}
	eligible := s.eligScratch[:0]
	for i, rq := range s.RQs {
		if rq.Len() == minLen {
			eligible = append(eligible, topology.CPUID(i))
		}
	}
	s.eligScratch = eligible // keep the grown backing array

	var chosen topology.CPUID
	if !s.Cfg.EnergyAwarePlacement || len(eligible) == 1 {
		// Vanilla Linux fork/exec balancing descends the domain
		// hierarchy picking the idlest group at each level, which
		// spreads tasks across nodes first, then packages, then SMT
		// siblings. Emulate that with a (node load, package load, ID)
		// ordering over the eligible CPUs.
		chosen = eligible[0]
		bestNode, bestPkg := 1<<30, 1<<30
		for _, c := range eligible {
			nl := s.nodeTaskCount(int(s.Topo.NodeOf[c]))
			pl := s.packageTaskCount(c)
			if nl < bestNode || (nl == bestNode && pl < bestPkg) {
				chosen, bestNode, bestPkg = c, nl, pl
			}
		}
	} else {
		// Primary criterion: runqueue power ratio with the new task
		// closest to the machine-wide average. Ties (common on an idle
		// machine) break toward the least-loaded node, then the
		// coolest package, so simultaneous starts spread across the
		// topology instead of piling onto the lowest CPU IDs.
		avg := s.AvgRQRatioAll()
		bestDist := math.Inf(1)
		bestNodeLoad := 1 << 30
		bestPkgTP := math.Inf(1)
		chosen = eligible[0]
		for _, c := range eligible {
			rq := s.RQ(c)
			withTask := ratioAfter(rq.PowerSum()+estWatts, rq.Len()+1, s.MaxPower(c))
			d := math.Abs(withTask - avg)
			nl := s.nodeTaskCount(int(s.Topo.NodeOf[c]))
			tp := s.PackageThermalSum(c)
			const eps = 1e-9
			better := d < bestDist-eps ||
				(d < bestDist+eps && nl < bestNodeLoad) ||
				(d < bestDist+eps && nl == bestNodeLoad && tp < bestPkgTP-eps)
			if better {
				chosen, bestDist, bestNodeLoad, bestPkgTP = c, d, nl, tp
			}
		}
	}
	s.RQ(chosen).Enqueue(t)
	return chosen
}

// nodeTaskCount returns the number of runnable tasks on a NUMA node,
// from the occupancy ledger (profiling showed the old full-runqueue
// scan dominating placement on saturated large machines).
func (s *Scheduler) nodeTaskCount(node int) int {
	return int(s.ledger.node[node])
}

// packageTaskCount returns the number of runnable tasks on cpu's
// physical package (all cores and threads).
func (s *Scheduler) packageTaskCount(cpu topology.CPUID) int {
	return int(s.ledger.pkg[s.Topo.PkgOf[cpu]])
}

// RecordFirstSlice stores the power a task drew during its first
// timeslice into the placement table (§4.6: the initial behaviour of a
// program is data-independent, so it predicts future instances of the
// same binary).
func (s *Scheduler) RecordFirstSlice(t *Task, watts float64) {
	s.Placement.Record(t.Binary, watts)
}
