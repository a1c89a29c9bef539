package sched

import (
	"math"

	"energysched/internal/topology"
)

// Group-ranking metrics of extremeGroup.
const (
	groupMetricRQRatio = iota // mean runqueue power ratio (§4.3)
	groupMetricThermal        // mean thermal power ratio (ablation)
	groupMetricLen            // mean runqueue length (load step)
)

// extremeGroup returns the index and value of the group of dom that
// maximizes the metric (strict, first group wins ties — the historical
// scan order).
func (s *Scheduler) extremeGroup(dom *topology.Domain, metric int) (int, float64) {
	best := -1
	bestVal := math.Inf(-1)
	for i, g := range dom.Groups {
		var v float64
		switch metric {
		case groupMetricRQRatio:
			v = s.groupRQRatio(g)
		case groupMetricThermal:
			v = s.groupThermalRatio(g)
		default:
			v = s.groupRQLen(g)
		}
		if v > bestVal {
			best, bestVal = i, v
		}
	}
	return best, bestVal
}

// Balance runs the merged energy + load balancing algorithm of §4.4
// (Fig. 4) on behalf of cpu. Like Linux's load balancer it executes on
// every CPU and only *pulls*: imbalances that would require pushing are
// resolved when the algorithm runs on the remote CPU.
//
// For every level of cpu's scheduler-domain hierarchy, bottom-up, the
// algorithm performs the energy-balancing step (skipped in domains whose
// groups share a physical chip, §4.7) followed by the load-balancing
// step.
func (s *Scheduler) Balance(cpu topology.CPUID) {
	for _, dom := range s.Topo.DomainsFor(cpu) {
		if s.Cfg.EnergyBalancing && dom.Flags&topology.FlagShareCPUPower == 0 {
			s.energyBalanceStep(cpu, dom)
		}
		s.loadBalanceStep(cpu, dom)
	}
}

// energyBalanceStep is the left column of Fig. 4: find the hottest CPU
// group in the domain; if it is not the local one, pull hot tasks from
// its hottest queue, exchanging cool tasks back if that would create a
// load imbalance.
func (s *Scheduler) energyBalanceStep(cpu topology.CPUID, dom *topology.Domain) {
	// "Search CPU group with highest average power ratio". The
	// thermal-only ablation ranks groups by thermal ratio instead.
	metric := groupMetricRQRatio
	if s.Cfg.Metric == MetricThermalOnly {
		metric = groupMetricThermal
	}
	hottest, _ := s.extremeGroup(dom, metric)
	if hottest < 0 || hottest == dom.GroupOf(cpu) {
		return // "Group contains local CPU?" → yes: nothing to pull here
	}

	// "Search queue with highest power ratio within group". Only
	// queues with waiting (non-running) tasks can donate. The
	// thermal-only ablation ranks queues by thermal ratio instead.
	var remote topology.CPUID = -1
	remoteRatio := math.Inf(-1)
	for _, c := range dom.Groups[hottest] {
		if len(s.RQ(c).Queued()) == 0 {
			continue
		}
		r := s.RQRatio(c)
		if s.Cfg.Metric == MetricThermalOnly {
			r = s.ThermalRatio(c)
		}
		if r > remoteRatio {
			remote, remoteRatio = c, r
		}
	}
	if remote < 0 {
		return
	}

	// Hysteresis (§4.4): the remote queue counts as hotter only if it
	// is both warmer (thermal power ratio — slow, provides the
	// hysteresis) and drawing more power (runqueue power ratio —
	// instantaneous, forbids pulling an undue number of tasks). The
	// ablation modes drop one condition each.
	if s.Cfg.Metric != MetricPowerOnly &&
		s.ThermalRatio(remote) <= s.ThermalRatio(cpu)+s.Cfg.ThermalRatioMargin {
		return
	}
	if s.Cfg.Metric != MetricThermalOnly &&
		s.RQRatio(remote) <= s.RQRatio(cpu)+s.Cfg.RQRatioMargin {
		return
	}

	// "Migrate hot task(s) to local CPU": pull the hottest waiting
	// tasks while each move strictly narrows the ratio gap. Without
	// the runqueue-power metric (thermal-only ablation) there is no
	// instantaneous gap to consult — the balancer pulls on temperature
	// alone, which is exactly the over-balancing the paper warns
	// about.
	local := s.RQ(cpu)
	pulled := 0
	for pulled < maxPullPerBalance {
		t := s.RQ(remote).HottestQueued()
		if t == nil {
			break
		}
		if s.Cfg.Metric != MetricThermalOnly && !s.moveNarrowsGap(t, remote, cpu) {
			break
		}
		s.Migrate(t, cpu, MigrateEnergy)
		pulled++
	}
	if pulled == 0 {
		return
	}

	// "Created load imbalance?" → "Migrate cool task(s) back".
	for local.Len() > s.RQ(remote).Len()+1 {
		back := local.CoolestQueued()
		if back == nil {
			break
		}
		s.Migrate(back, remote, MigrateEnergy)
	}
}

// moveNarrowsGap simulates moving task t from one queue to another and
// reports whether the runqueue-power-ratio gap shrinks. This is the
// §4.3 rationale for runqueue power: it "immediately reflect[s] the
// effect that a task migration has on the power consumption of the
// CPUs".
func (s *Scheduler) moveNarrowsGap(t *Task, from, to topology.CPUID) bool {
	w := t.ProfiledWatts()
	fromRQ, toRQ := s.RQ(from), s.RQ(to)
	before := math.Abs(s.RQRatio(from) - s.RQRatio(to))
	fromAfter := ratioAfter(fromRQ.PowerSum()-w, fromRQ.Len()-1, s.MaxPower(from))
	toAfter := ratioAfter(toRQ.PowerSum()+w, toRQ.Len()+1, s.MaxPower(to))
	return math.Abs(fromAfter-toAfter) < before
}

func ratioAfter(powerSum float64, n int, maxPower float64) float64 {
	if n <= 0 {
		return 0
	}
	return powerSum / float64(n) / maxPower
}

// loadBalanceStep is the right column of Fig. 4: conventional pull-based
// load balancing, but — when energy balancing is enabled — choosing
// *which* tasks to move so as not to create energy imbalances: hot tasks
// if the remote group is hotter than the local one, cool tasks if it is
// cooler (§4.4). In domains whose groups are SMT siblings the energy
// restrictions do not apply (§4.7).
func (s *Scheduler) loadBalanceStep(cpu topology.CPUID, dom *topology.Domain) {
	busiest, _ := s.extremeGroup(dom, groupMetricLen)
	if busiest < 0 || busiest == dom.GroupOf(cpu) {
		return
	}

	var remote topology.CPUID = -1
	remoteLen := -1
	for _, c := range dom.Groups[busiest] {
		if len(s.RQ(c).Queued()) == 0 {
			continue
		}
		if l := s.RQ(c).Len(); l > remoteLen {
			remote, remoteLen = c, l
		}
	}
	if remote < 0 {
		return
	}

	local := s.RQ(cpu)
	imbalance := remoteLen - local.Len()
	if imbalance < 2 {
		return // within one task of each other: balanced
	}
	nmove := imbalance / 2

	energyAware := s.Cfg.EnergyBalancing && dom.Flags&topology.FlagShareCPUPower == 0
	remoteHotter := s.ThermalRatio(remote) > s.ThermalRatio(cpu)
	for i := 0; i < nmove; i++ {
		var t *Task
		switch {
		case !energyAware:
			q := s.RQ(remote).Queued()
			if len(q) > 0 {
				t = q[0]
			}
		case remoteHotter:
			t = s.RQ(remote).HottestQueued()
		default:
			t = s.RQ(remote).CoolestQueued()
		}
		if t == nil {
			return
		}
		s.Migrate(t, cpu, MigrateLoad)
	}
}
