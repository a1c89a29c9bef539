package machine

import (
	"energysched/internal/sched"
	"energysched/internal/stats"
	"energysched/internal/topology"
	"energysched/internal/units"
)

// ThrottledFrac returns the fraction of time a logical CPU spent halted
// by the throttle while it had work to run — Table 3's "CPU throttling
// percentage".
func (m *Machine) ThrottledFrac(cpu topology.CPUID) float64 {
	dur := m.nowMS - m.statsBaseMS
	if dur <= 0 {
		return 0
	}
	return float64(m.haltedTicks[int(cpu)]) / float64(dur)
}

// AvgThrottledFrac returns the machine-wide average throttling fraction
// over logical CPUs (the "average" row of Table 3).
func (m *Machine) AvgThrottledFrac() float64 {
	n := m.Cfg.Layout.NumLogical()
	sum := 0.0
	for c := 0; c < n; c++ {
		sum += m.ThrottledFrac(topology.CPUID(c))
	}
	return sum / float64(n)
}

// DownclockedFrac returns the fraction of wall time since the last
// ResetStats that a logical CPU was both occupied and running below
// the nominal frequency — the DVFS counterpart of ThrottledFrac in the
// enforcement comparison, sharing its wall-clock denominator (it is
// NOT conditioned on occupancy). Always 0 without DVFS.
func (m *Machine) DownclockedFrac(cpu topology.CPUID) float64 {
	dur := m.nowMS - m.statsBaseMS
	if dur <= 0 || m.downTicks == nil {
		return 0
	}
	return float64(m.downTicks[int(cpu)]) / float64(dur)
}

// AvgDownclockedFrac returns the machine-wide average downclocked
// fraction over logical CPUs.
func (m *Machine) AvgDownclockedFrac() float64 {
	n := m.Cfg.Layout.NumLogical()
	sum := 0.0
	for c := 0; c < n; c++ {
		sum += m.DownclockedFrac(topology.CPUID(c))
	}
	return sum / float64(n)
}

// FreqMHz returns a logical CPU's current clock. Without DVFS it is
// the model's nominal clock.
func (m *Machine) FreqMHz(cpu topology.CPUID) float64 {
	if !m.dvfsOn {
		return m.Model.ClockMHz
	}
	return m.dvfsCfg.Ladder[m.freqIdx[int(cpu)]].FreqMHz
}

// PeakTempC returns the hottest core temperature observed since the
// last ResetStats — the temperature-ceiling axis of the
// DVFS-vs-throttling comparison.
func (m *Machine) PeakTempC() float64 { return m.peakTempC }

// IdleFrac returns the fraction of ticks a CPU had nothing to run.
func (m *Machine) IdleFrac(cpu topology.CPUID) float64 {
	dur := m.nowMS - m.statsBaseMS
	if dur <= 0 {
		return 0
	}
	return float64(m.idleTicks[int(cpu)]) / float64(dur)
}

// ThermalPowerSeries returns the sampled thermal-power series of a
// logical CPU (the curves of Figs. 6 and 7), or nil when monitoring is
// disabled.
func (m *Machine) ThermalPowerSeries(cpu topology.CPUID) *stats.Series {
	if m.tpSeries == nil {
		return nil
	}
	return m.tpSeries[int(cpu)]
}

// TempSeries returns the sampled junction-temperature series of a
// core (on the paper's single-core packages, of a package), or nil when
// monitoring is disabled.
func (m *Machine) TempSeries(core int) *stats.Series {
	if m.tempSeries == nil {
		return nil
	}
	return m.tempSeries[core]
}

// CoreTemp returns the current junction temperature of a core's local
// thermal node.
func (m *Machine) CoreTemp(core int) float64 { return m.nodes[core].TempC }

// PackageTemp returns the hottest core temperature of a package (equal
// to the package temperature on single-core packages).
func (m *Machine) PackageTemp(pkg int) float64 {
	cores := m.Cfg.Layout.Cores()
	max := m.nodes[pkg*cores].TempC
	for c := pkg*cores + 1; c < (pkg+1)*cores; c++ {
		if m.nodes[c].TempC > max {
			max = m.nodes[c].TempC
		}
	}
	return max
}

// UnitTemp returns the temperature of one functional-unit hotspot on a
// core (§7 extension), or the core temperature when unit tracking is
// off.
func (m *Machine) UnitTemp(core int, u units.Kind) float64 {
	if m.unitNodes == nil {
		return m.nodes[core].TempC
	}
	return m.unitNodes[core][int(u)].TempC
}

// MaxUnitTemp returns the hottest functional-unit temperature on the
// machine.
func (m *Machine) MaxUnitTemp() float64 {
	max := 0.0
	for core := range m.nodes {
		for u := units.Kind(0); u < units.NumUnits; u++ {
			if t := m.UnitTemp(core, u); t > max {
				max = t
			}
		}
	}
	return max
}

// PackageBudget returns the max-power budget of a package (0 when
// ratios/throttling are disabled).
func (m *Machine) PackageBudget(pkg int) float64 { return m.pkgBudget[pkg] }

// MigrationCount returns the total number of task migrations so far.
func (m *Machine) MigrationCount() int64 { return m.Sched.MigrationCount }

// MigrationCountByReason returns the migrations attributed to one
// policy.
func (m *Machine) MigrationCountByReason(r sched.MigrationReason) int64 {
	return m.Sched.MigrationsByReason[int(r)]
}

// ResetStats clears throughput, migration, throttle, and idle
// accounting — typically called after a warm-up phase so steady-state
// measurements are not polluted by the initial transient.
func (m *Machine) ResetStats() {
	m.Completions = 0
	m.WorkDoneMS = 0
	m.TrueEnergyJ = 0
	m.PStateSwitches = 0
	m.CompletionsByProg = make(map[string]int64)
	m.Migrations = m.Migrations[:0]
	m.Sched.MigrationCount = 0
	m.Sched.MigrationsByReason = [4]int64{}
	for i := range m.idleTicks {
		m.idleTicks[i] = 0
		m.haltedTicks[i] = 0
	}
	for i := range m.downTicks {
		m.downTicks[i] = 0
	}
	m.deadlineFires = [4]int64{}
	m.wheel.Stats = sched.DeadlineStats{}
	if m.qstats != nil {
		*m.qstats = QuantumStats{}
	}
	// Peak temperature restarts from the hottest current core.
	m.peakTempC = 0
	for _, n := range m.nodes {
		if n.TempC > m.peakTempC {
			m.peakTempC = n.TempC
		}
	}
	for _, t := range m.throttles {
		t.Reset()
	}
	for _, t := range m.unitThrottles {
		t.Reset()
	}
	// Fault-injection counters restart; the loop's state (fallback
	// engagement, recalibrated weights, the latest residual) persists —
	// it is machine state, not a statistic. The idle-residency baseline
	// of the residual window rebases with the tick counters above.
	m.EstimationErrJ = 0
	m.RecalibrationCount = 0
	m.FallbackTicks = 0
	m.recalIdlePrev = 0
	// nowMS keeps advancing; IdleFrac uses a separate base.
	m.statsBaseMS = m.nowMS
}

// Throughput returns completed tasks per simulated second since the
// last ResetStats (or the start).
func (m *Machine) Throughput() float64 {
	dur := m.nowMS - m.statsBaseMS
	if dur <= 0 {
		return 0
	}
	return float64(m.Completions) / (float64(dur) / 1000)
}

// WorkRate returns executed work per wall millisecond since the last
// ResetStats: the speed-weighted fraction of CPU capacity in use, in
// units of "full CPUs".
func (m *Machine) WorkRate() float64 {
	dur := m.nowMS - m.statsBaseMS
	if dur <= 0 {
		return 0
	}
	return m.WorkDoneMS / float64(dur)
}
