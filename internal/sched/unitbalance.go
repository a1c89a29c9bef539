package sched

import (
	"energysched/internal/topology"
	"energysched/internal/units"
)

// Unit-aware balancing implements the §7 multiple-temperature
// extension: even when two runqueues draw the same total power, their
// heat may concentrate in different functional units. The unit balancer
// exchanges equal-power tasks between queues so that each queue mixes
// integer-heavy and FP-heavy work, flattening per-unit hotspots that
// the scalar energy balancer — blind to *where* energy is dissipated —
// cannot see.

// UnitVector returns the average per-unit profiled power of a
// runqueue's tasks (the unit-level analogue of runqueue power, §4.3).
func (rq *Runqueue) UnitVector() units.Energies {
	var sum units.Energies
	n := 0
	add := func(t *Task) {
		if t.Units == nil || !t.Units.Primed() {
			return
		}
		v := t.Units.Vector()
		for u := range sum {
			sum[u] += v[u]
		}
		n++
	}
	if rq.Current != nil {
		add(rq.Current)
	}
	for _, t := range rq.queue {
		add(t)
	}
	if n == 0 {
		return units.Energies{}
	}
	for u := range sum {
		sum[u] /= float64(n)
	}
	return sum
}

// unitPeak returns the hottest unit's average power of a queue.
func (rq *Runqueue) unitPeak() float64 {
	_, v := rq.UnitVector().Peak()
	return v
}

// UnitBalance looks for a 1-for-1 exchange of queued tasks between cpu's
// runqueue and another queue in its domains that lowers the worse of the
// two queues' per-unit peaks, while keeping total queue power (and thus
// the §4.4 energy balance) essentially unchanged. It returns true if an
// exchange was performed.
//
// SMT-sibling domains are skipped as always; all other levels are
// searched bottom-up, so unit heat — like scalar heat — moves at the
// cheapest level possible.
func (s *Scheduler) UnitBalance(cpu topology.CPUID) bool {
	if !s.Cfg.UnitAwareBalancing {
		return false
	}
	local := s.RQ(cpu)
	if len(local.Queued()) == 0 {
		return false
	}
	for _, dom := range s.Topo.DomainsFor(cpu) {
		if dom.Flags&topology.FlagShareCPUPower != 0 {
			continue
		}
		if s.unitBalanceInDomain(cpu, dom) {
			return true
		}
	}
	return false
}

func (s *Scheduler) unitBalanceInDomain(cpu topology.CPUID, dom *topology.Domain) bool {
	local := s.RQ(cpu)
	bestGain := unitGainMinW
	var bestA, bestB *Task
	var bestRemote topology.CPUID = -1

	for _, rc := range dom.Span {
		if rc == cpu {
			continue
		}
		remote := s.RQ(rc)
		if len(remote.Queued()) == 0 {
			continue
		}
		before := maxf(local.unitPeak(), remote.unitPeak())
		for _, a := range local.Queued() {
			if a.Units == nil || !a.Units.Primed() {
				continue
			}
			for _, b := range remote.Queued() {
				if b.Units == nil || !b.Units.Primed() {
					continue
				}
				// The swap must not disturb the scalar energy
				// balance: only (nearly) equal-power tasks trade
				// places.
				if absf(a.ProfiledWatts()-b.ProfiledWatts()) > unitSwapPowerMarginW {
					continue
				}
				after := maxf(peakAfterSwap(local, a, b), peakAfterSwap(remote, b, a))
				if gain := before - after; gain > bestGain {
					bestGain, bestA, bestB, bestRemote = gain, a, b, rc
				}
			}
		}
	}
	if bestA == nil {
		return false
	}
	s.Migrate(bestA, bestRemote, MigrateUnit)
	s.Migrate(bestB, cpu, MigrateUnit)
	return true
}

// peakAfterSwap returns the queue's per-unit peak if task out were
// replaced by task in.
func peakAfterSwap(rq *Runqueue, out, in *Task) float64 {
	var sum units.Energies
	n := 0
	add := func(t *Task) {
		if t.Units == nil || !t.Units.Primed() {
			return
		}
		v := t.Units.Vector()
		for u := range sum {
			sum[u] += v[u]
		}
		n++
	}
	if rq.Current != nil {
		add(rq.Current)
	}
	for _, t := range rq.queue {
		if t == out {
			continue
		}
		add(t)
	}
	add(in)
	if n == 0 {
		return 0
	}
	peak := 0.0
	for u := range sum {
		if v := sum[u] / float64(n); v > peak {
			peak = v
		}
	}
	return peak
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
