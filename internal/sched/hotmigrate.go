package sched

import (
	"math"

	"energysched/internal/topology"
)

// HotTrigger reports whether cpu's physical core has (nearly) reached
// its power budget, arming hot task migration. Following §4.7, the
// trigger works at the granularity of the hardware that overheats —
// "since not logical but only physical processors can overheat, we only
// migrate a hot task actively … if the sum of the thermal powers of all
// logical CPUs belonging to a physical processor is greater than the
// allowed maximum power for that processor". On the paper's machine a
// core is the whole package; on a §7 CMP each core is a heat source of
// its own. For non-SMT layouts this degenerates to the §4.5 wording.
func (s *Scheduler) HotTrigger(cpu topology.CPUID) bool {
	trigger, ok := s.HotTriggerW(cpu)
	return ok && s.CoreThermalSum(cpu) >= trigger
}

// HotTriggerW returns the core thermal sum at which HotTrigger fires
// for cpu: the core's summed maximum power less the trigger margin. ok
// is false when no power budget is installed, and then HotTrigger never
// fires.
func (s *Scheduler) HotTriggerW(cpu topology.CPUID) (trigger float64, ok bool) {
	var maxP float64
	for _, c := range s.Topo.CPUsOfCore(int(s.Topo.CoreOf[cpu])) {
		maxP += s.MaxPower(topology.CPUID(c))
	}
	if maxP >= 1e18 {
		return 0, false
	}
	return maxP - hotTriggerMarginW, true
}

// HotCheck runs the §4.5 hot task migration algorithm (Fig. 5) for cpu.
// It returns true if a migration (or exchange) was performed.
//
// The policy applies only when the runqueue holds a single task —
// otherwise energy balancing is responsible. The scheduler traverses
// the domain hierarchy bottom-up, skipping SMT-sibling domains
// (migrating to a sibling cannot cool the core, §4.7), looking for the
// coolest core in each domain. On a CMP the "mc" level is searched
// first: another core of the same chip is the cheapest destination that
// still moves heat (§7). A destination must be cooler than the source
// by the configured gap; it is used if it has an idle CPU, or one
// running a single distinctly cooler task, which is then exchanged to
// preserve load balance. If the top-level domain yields no destination,
// all CPUs are hot and the task stays (the CPU will be throttled).
func (s *Scheduler) HotCheck(cpu topology.CPUID) bool {
	if !s.Cfg.HotTaskMigration {
		return false
	}
	rq := s.RQ(cpu)
	if rq.Current == nil || rq.Len() != 1 {
		return false
	}
	if !s.HotTrigger(cpu) {
		return false
	}
	task := rq.Current
	myCoreTP := s.CoreThermalSum(cpu)
	myCore := int(s.Topo.CoreOf[cpu])

	for _, dom := range s.Topo.DomainsFor(cpu) {
		if dom.Flags&topology.FlagShareCPUPower != 0 {
			continue // never migrate within the own core
		}
		// "Search coolest CPU within domain": heat lives in physical
		// cores, so coolness is the core's summed thermal power — a
		// logical CPU that idled next to a busy sibling is NOT a cool
		// destination. The source core is excluded (its siblings share
		// the overheating silicon, §4.7).
		destCore, destTP := s.coolestCoreExcl(dom, myCore)
		if destCore < 0 {
			continue
		}
		// "CPU cool enough?" — must be considerably cooler to limit
		// the migration frequency.
		if destTP > myCoreTP-s.Cfg.HotDestGapW {
			continue // ascend one level
		}
		// Within the coolest core: "CPU idle?" → migrate there.
		var idle, exch topology.CPUID = -1, -1
		for _, c32 := range s.Topo.CPUsOfCore(destCore) {
			c := topology.CPUID(c32)
			dstRQ := s.RQ(c)
			if dstRQ.Idle() && idle < 0 {
				idle = c
			}
			// "CPU running cool task?" → candidate for an exchange.
			if dstRQ.Len() == 1 && dstRQ.Current != nil && exch < 0 &&
				dstRQ.Current.ProfiledWatts() < task.ProfiledWatts()-exchangeGapW {
				exch = c
			}
		}
		if idle >= 0 {
			s.Migrate(task, idle, MigrateHot)
			return true
		}
		if exch >= 0 {
			peer := s.RQ(exch).Current
			s.Migrate(task, exch, MigrateHot)
			s.Migrate(peer, cpu, MigrateHot)
			return true
		}
		// Neither idle nor running a cool task → ascend.
	}
	return false
}

// coolTieRel is the relative margin within which two cores' thermal
// sums count as tied in the coolest-core ranking. The sums are decayed
// averages the engines integrate on different partitions of the same
// history (per-ms, per-quantum, lazily settled), so two cores that have
// converged to the same steady state — long-idle cores decayed to the
// idle share — agree only to within a few ulps, and *which* one is an
// ulp cooler depends on the engine. Ranking on raw floats then picks
// engine-dependent destinations. Treating sums within this margin as
// equal lets the deterministic scan order break the tie identically
// everywhere; genuinely distinct cores differ by far more than 1e-9
// relative, and the drift (~1e-13 relative) sits far below it.
const coolTieRel = 1e-9

// coolerThan reports a strictly cooler than b under the tie margin.
func coolerThan(a, b float64) bool {
	if math.IsInf(b, 1) {
		return true
	}
	return a < b-coolTieRel*math.Max(math.Abs(a), math.Abs(b))
}

// coolestCoreExcl returns the coolest physical core of a domain's span
// other than myCore, with its summed thermal power; (-1, +inf) when no
// such core exists.
func (s *Scheduler) coolestCoreExcl(dom *topology.Domain, myCore int) (int, float64) {
	destCore := -1
	destTP := math.Inf(1)
	for _, core := range dom.Cores {
		if int(core) == myCore {
			continue
		}
		if tp := s.coreSum(int(core)); coolerThan(tp, destTP) {
			destCore, destTP = int(core), tp
		}
	}
	return destCore, destTP
}

// CoreThermalSum returns the summed thermal power of all logical CPUs
// on cpu's physical core — the quantity that corresponds to the core's
// temperature (§4.7; per-core on a §7 CMP). It reads the siblings
// from the topology's CoreCPUs table, so it does not allocate.
func (s *Scheduler) CoreThermalSum(cpu topology.CPUID) float64 {
	return s.coreSum(int(s.Topo.CoreOf[cpu]))
}

// coreSum is CoreThermalSum keyed by physical core index.
func (s *Scheduler) coreSum(core int) float64 {
	return s.thermalSum(s.Topo.CPUsOfCore(core))
}

// PackageThermalSum returns the summed thermal power of all logical
// CPUs on cpu's physical package (all cores), core-major: a package's
// CPUs are one contiguous run of CoreCPUs.
func (s *Scheduler) PackageThermalSum(cpu topology.CPUID) float64 {
	n := s.Topo.Layout.Cores() * s.Topo.Layout.ThreadsPerPackage
	p := int(s.Topo.PkgOf[cpu])
	return s.thermalSum(s.Topo.CoreCPUs[p*n : (p+1)*n])
}

// thermalSum adds the thermal powers of cpus in order.
func (s *Scheduler) thermalSum(cpus []int32) float64 {
	sum := 0.0
	for _, c := range cpus {
		sum += s.ThermalPower(topology.CPUID(c))
	}
	return sum
}
