package machine

import (
	"fmt"
	"math"

	"energysched/internal/topology"
)

// This file is the machine's side of the differential-fuzzing oracle
// (internal/fuzz): an exported, comparable summary of everything the
// cross-engine equivalence contract asserts (Snapshot / DiffSnapshots),
// plus self-consistency checks (CheckInvariants) that validate one
// machine against its own bookkeeping — so lockstep itself is
// cross-checked against conservation laws, not just mimicked by the
// fast engines.

// TaskSnapshot is one live task's scheduler-visible state.
type TaskSnapshot struct {
	CPU      topology.CPUID
	Sleeping bool
	WakeAtMS int64
	// ProfileW is the task's profiled power (§3.3 exponential average).
	ProfileW float64
}

// Snapshot is a comparable summary of a machine's observable state: the
// discrete outcomes the engines must reproduce exactly and the float
// outcomes they must reproduce within rounding. Taken between Run calls
// (the async engine settles all deferred state when Run returns).
type Snapshot struct {
	Engine Engine
	NowMS  int64

	Completions       int64
	CompletionsByProg map[string]int64
	WorkDoneMS        float64
	TrueEnergyJ       float64
	PeakTempC         float64
	MaxUnitTempC      float64 // 0 unless UnitThermal
	PStateSwitches    int64

	MigrationCount     int64
	MigrationsByReason [4]int64
	Migrations         []MigrationEvent

	IdleTicks   []int64 // per logical CPU
	HaltedTicks []int64
	DownTicks   []int64 // nil without DVFS
	ThermalW    []float64
	FreqIdx     []int   // nil without DVFS
	PendingIdx  []int   // nil without DVFS
	PendingAt   []int64 // nil without DVFS
	CoreTempC   []float64

	// Per-CPU utilization windows: busy time since the last governor
	// observation and that observation's instant. nil when no governor
	// evaluates.
	UtilBusyMS  []float64
	UtilSinceMS []int64

	// Fault-injection observables (zero without Cfg.Faults).
	EstimationErrJ     float64
	ResidualW          float64
	RecalibrationCount int64
	FallbackTicks      int64

	QueuedTasks int // total waiting (non-running) tasks
	Sleepers    int
	Tasks       map[int]TaskSnapshot
}

// Snapshot captures the machine's observable state. Call it between Run
// calls only: mid-step the async engine's deferred state is not
// materialized.
func (m *Machine) Snapshot() *Snapshot {
	nCPU := m.Cfg.Layout.NumLogical()
	s := &Snapshot{
		Engine:             m.Cfg.Engine,
		NowMS:              m.nowMS,
		Completions:        m.Completions,
		CompletionsByProg:  make(map[string]int64, len(m.CompletionsByProg)),
		WorkDoneMS:         m.WorkDoneMS,
		TrueEnergyJ:        m.TrueEnergyJ,
		PeakTempC:          m.peakTempC,
		PStateSwitches:     m.PStateSwitches,
		MigrationCount:     m.Sched.MigrationCount,
		MigrationsByReason: m.Sched.MigrationsByReason,
		Migrations:         append([]MigrationEvent(nil), m.Migrations...),
		IdleTicks:          append([]int64(nil), m.idleTicks...),
		HaltedTicks:        append([]int64(nil), m.haltedTicks...),
		ThermalW:           make([]float64, nCPU),
		CoreTempC:          make([]float64, len(m.nodes)),
		EstimationErrJ:     m.EstimationErrJ,
		ResidualW:          m.ResidualW,
		RecalibrationCount: m.RecalibrationCount,
		FallbackTicks:      m.FallbackTicks,
		QueuedTasks:        m.Sched.TotalQueued(),
		Sleepers:           len(m.sleepers),
		Tasks:              make(map[int]TaskSnapshot, len(m.tasks)),
	}
	for p, n := range m.CompletionsByProg {
		s.CompletionsByProg[p] = n
	}
	for c := 0; c < nCPU; c++ {
		s.ThermalW[c] = m.Sched.Power[c].ThermalPower()
	}
	for core := range m.nodes {
		s.CoreTempC[core] = m.nodes[core].TempC
	}
	if m.unitNodes != nil {
		s.MaxUnitTempC = m.MaxUnitTemp()
	}
	if m.dvfsOn {
		s.DownTicks = append([]int64(nil), m.downTicks...)
		s.FreqIdx = append([]int(nil), m.freqIdx...)
		s.PendingIdx = append([]int(nil), m.pendingIdx...)
		s.PendingAt = append([]int64(nil), m.pendingAt...)
	}
	if m.govPeriod > 0 {
		s.UtilBusyMS = make([]float64, nCPU)
		s.UtilSinceMS = make([]int64, nCPU)
		for c := range m.Sched.Util {
			st := m.Sched.Util[c].State()
			s.UtilBusyMS[c], s.UtilSinceMS[c] = st.BusyMS, st.SinceMS
		}
	}
	for id, ts := range m.tasks {
		s.Tasks[id] = TaskSnapshot{
			CPU:      ts.st.CPU,
			Sleeping: ts.sleeping,
			WakeAtMS: ts.wakeAtMS,
			ProfileW: ts.st.Profile.Watts(),
		}
	}
	return s
}

// relDiff is the relative difference |a-b| / max(|a|, |b|), 0 when
// a == b.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// DiffSnapshots compares two snapshots under the cross-engine contract:
// discrete outcomes exactly equal, float outcomes within tol relative
// difference. It returns a human-readable line per divergence, empty
// when the snapshots are equivalent.
func DiffSnapshots(ref, got *Snapshot, tol float64) []string {
	var diffs []string
	add := func(format string, args ...interface{}) {
		diffs = append(diffs, fmt.Sprintf(format, args...))
	}
	if ref.NowMS != got.NowMS {
		add("clock: %d vs %d", ref.NowMS, got.NowMS)
		return diffs // nothing else is comparable across different instants
	}
	if ref.Completions != got.Completions {
		add("completions: %d vs %d", ref.Completions, got.Completions)
	}
	for p, n := range ref.CompletionsByProg {
		if got.CompletionsByProg[p] != n {
			add("completions[%s]: %d vs %d", p, n, got.CompletionsByProg[p])
		}
	}
	for p, n := range got.CompletionsByProg {
		if _, ok := ref.CompletionsByProg[p]; !ok && n != 0 {
			add("completions[%s]: 0 vs %d", p, n)
		}
	}
	if ref.MigrationCount != got.MigrationCount {
		add("migrations: %d vs %d", ref.MigrationCount, got.MigrationCount)
	}
	if ref.MigrationsByReason != got.MigrationsByReason {
		add("migrations by reason: %v vs %v", ref.MigrationsByReason, got.MigrationsByReason)
	}
	if len(ref.Migrations) != len(got.Migrations) {
		add("migration events: %d vs %d", len(ref.Migrations), len(got.Migrations))
	} else {
		for i := range ref.Migrations {
			if ref.Migrations[i] != got.Migrations[i] {
				add("migration %d: %+v vs %+v", i, ref.Migrations[i], got.Migrations[i])
				break
			}
		}
	}
	for c := range ref.IdleTicks {
		if ref.IdleTicks[c] != got.IdleTicks[c] {
			add("cpu %d idle ticks: %d vs %d", c, ref.IdleTicks[c], got.IdleTicks[c])
		}
		if ref.HaltedTicks[c] != got.HaltedTicks[c] {
			add("cpu %d halted ticks: %d vs %d", c, ref.HaltedTicks[c], got.HaltedTicks[c])
		}
		if d := relDiff(ref.ThermalW[c], got.ThermalW[c]); d > tol {
			add("cpu %d thermal power rel diff %.2e (%.9f vs %.9f)", c, d, ref.ThermalW[c], got.ThermalW[c])
		}
	}
	for core := range ref.CoreTempC {
		if d := relDiff(ref.CoreTempC[core], got.CoreTempC[core]); d > tol {
			add("core %d temp rel diff %.2e (%.9f vs %.9f)", core, d, ref.CoreTempC[core], got.CoreTempC[core])
		}
	}
	if d := relDiff(ref.TrueEnergyJ, got.TrueEnergyJ); d > tol {
		add("true energy rel diff %.2e (%.6f vs %.6f)", d, ref.TrueEnergyJ, got.TrueEnergyJ)
	}
	if d := relDiff(ref.PeakTempC, got.PeakTempC); d > tol {
		add("peak temp rel diff %.2e (%.6f vs %.6f)", d, ref.PeakTempC, got.PeakTempC)
	}
	if d := relDiff(ref.MaxUnitTempC, got.MaxUnitTempC); d > tol {
		add("max unit temp rel diff %.2e", d)
	}
	if d := relDiff(ref.WorkDoneMS, got.WorkDoneMS); d > 1e-9 {
		add("work done rel diff %.2e (%.6f vs %.6f)", d, ref.WorkDoneMS, got.WorkDoneMS)
	}
	if ref.PStateSwitches != got.PStateSwitches {
		add("p-state switches: %d vs %d", ref.PStateSwitches, got.PStateSwitches)
	}
	if d := relDiff(ref.EstimationErrJ, got.EstimationErrJ); d > tol {
		add("estimation err rel diff %.2e (%.6f vs %.6f)", d, ref.EstimationErrJ, got.EstimationErrJ)
	}
	if d := relDiff(ref.ResidualW, got.ResidualW); d > tol {
		add("residual rel diff %.2e (%.9f vs %.9f)", d, ref.ResidualW, got.ResidualW)
	}
	if ref.RecalibrationCount != got.RecalibrationCount {
		add("recalibrations: %d vs %d", ref.RecalibrationCount, got.RecalibrationCount)
	}
	if ref.FallbackTicks != got.FallbackTicks {
		add("fallback ticks: %d vs %d", ref.FallbackTicks, got.FallbackTicks)
	}
	for c := range ref.FreqIdx {
		if ref.FreqIdx[c] != got.FreqIdx[c] {
			add("cpu %d p-state: %d vs %d", c, ref.FreqIdx[c], got.FreqIdx[c])
		}
		if ref.DownTicks[c] != got.DownTicks[c] {
			add("cpu %d downclocked ticks: %d vs %d", c, ref.DownTicks[c], got.DownTicks[c])
		}
		if ref.PendingIdx[c] != got.PendingIdx[c] ||
			(ref.PendingIdx[c] >= 0 && ref.PendingAt[c] != got.PendingAt[c]) {
			add("cpu %d pending transition: %d@%d vs %d@%d", c,
				ref.PendingIdx[c], ref.PendingAt[c], got.PendingIdx[c], got.PendingAt[c])
		}
	}
	if len(ref.UtilBusyMS) != len(got.UtilBusyMS) {
		add("util windows: %d vs %d CPUs", len(ref.UtilBusyMS), len(got.UtilBusyMS))
	}
	for c := range min(len(ref.UtilBusyMS), len(got.UtilBusyMS)) {
		if ref.UtilBusyMS[c] != got.UtilBusyMS[c] || ref.UtilSinceMS[c] != got.UtilSinceMS[c] {
			add("cpu %d util window: {%v %d} vs {%v %d}", c,
				ref.UtilBusyMS[c], ref.UtilSinceMS[c], got.UtilBusyMS[c], got.UtilSinceMS[c])
		}
	}
	if ref.QueuedTasks != got.QueuedTasks || ref.Sleepers != got.Sleepers {
		add("task counts: %d/%d queued, %d/%d asleep",
			ref.QueuedTasks, got.QueuedTasks, ref.Sleepers, got.Sleepers)
	}
	if len(ref.Tasks) != len(got.Tasks) {
		add("live tasks: %d vs %d", len(ref.Tasks), len(got.Tasks))
	}
	for id, rt := range ref.Tasks {
		gt, ok := got.Tasks[id]
		if !ok {
			add("task %d missing", id)
			continue
		}
		if rt.CPU != gt.CPU || rt.Sleeping != gt.Sleeping || rt.WakeAtMS != gt.WakeAtMS {
			add("task %d state: cpu %d/%d sleeping %v/%v wake %d/%d", id,
				rt.CPU, gt.CPU, rt.Sleeping, gt.Sleeping, rt.WakeAtMS, gt.WakeAtMS)
		}
		if d := relDiff(rt.ProfileW, gt.ProfileW); d > tol {
			add("task %d profile rel diff %.2e", id, d)
		}
	}
	return diffs
}

// CheckInvariants validates the machine against its own bookkeeping —
// conservation laws every engine must obey plus the async engine's
// parking/settle invariants. Call it between Run calls only (the async
// park sweep has run and all deferred state is settled). It returns nil
// when every check passes.
func (m *Machine) CheckInvariants() error {
	nCPU := m.Cfg.Layout.NumLogical()
	elapsed := m.nowMS - m.statsBaseMS

	// Tick conservation: a CPU's tick is idle, halted, or running; the
	// first two are counted, and executed work is bounded by the
	// running remainder (execution speed ≤ 1).
	var idleSum, haltSum int64
	for c := 0; c < nCPU; c++ {
		if m.idleTicks[c] < 0 || m.haltedTicks[c] < 0 {
			return fmt.Errorf("cpu %d: negative tick counters idle=%d halted=%d", c, m.idleTicks[c], m.haltedTicks[c])
		}
		if m.idleTicks[c]+m.haltedTicks[c] > elapsed {
			return fmt.Errorf("cpu %d: idle %d + halted %d ticks exceed elapsed %d",
				c, m.idleTicks[c], m.haltedTicks[c], elapsed)
		}
		idleSum += m.idleTicks[c]
		haltSum += m.haltedTicks[c]
	}
	if busy := float64(int64(nCPU)*elapsed - idleSum - haltSum); m.WorkDoneMS > busy*(1+1e-9)+1e-6 {
		return fmt.Errorf("work conservation: WorkDoneMS %.3f exceeds busy tick budget %.3f", m.WorkDoneMS, busy)
	}
	// Energy floor: idle ticks integrate exactly the per-CPU idle
	// share; busy ticks add a non-negative amount on top.
	if floor := float64(idleSum) * m.idleShareW / 1000; m.TrueEnergyJ < floor*(1-1e-9)-1e-9 {
		return fmt.Errorf("energy conservation: TrueEnergyJ %.6f below idle floor %.6f", m.TrueEnergyJ, floor)
	}
	var compSum int64
	for _, n := range m.CompletionsByProg {
		compSum += n
	}
	if compSum != m.Completions {
		return fmt.Errorf("completions: per-program sum %d vs total %d", compSum, m.Completions)
	}
	var migSum int64
	for _, n := range m.Sched.MigrationsByReason {
		migSum += n
	}
	if migSum != m.Sched.MigrationCount {
		return fmt.Errorf("migrations: per-reason sum %d vs total %d", migSum, m.Sched.MigrationCount)
	}

	// Task bookkeeping: every live task is either asleep (on the
	// sleeper list) or on a runqueue.
	sleeping := 0
	for _, ts := range m.tasks {
		if ts.sleeping {
			sleeping++
		}
	}
	if sleeping != len(m.sleepers) {
		return fmt.Errorf("sleepers: %d sleeping tasks vs %d list entries", sleeping, len(m.sleepers))
	}
	if runnable := len(m.tasks) - sleeping; runnable != m.Sched.TotalTasks() {
		return fmt.Errorf("runnable tasks: %d live-awake vs %d on runqueues", runnable, m.Sched.TotalTasks())
	}

	// Occupancy ledger vs full scans.
	if got, want := m.Sched.QueuedCount(), m.Sched.TotalQueued(); got != want {
		return fmt.Errorf("queued counter drifted: %d vs TotalQueued %d", got, want)
	}
	idle := 0
	for _, rq := range m.Sched.RQs {
		if rq.Idle() {
			idle++
		}
	}
	if got := m.Sched.IdleCPUCount(); got != idle {
		return fmt.Errorf("idle counter drifted: %d vs scan %d", got, idle)
	}

	if !m.async {
		return nil
	}
	return m.checkParkInvariants()
}

// checkParkInvariants validates the async engine's parking and settle
// bookkeeping after a settled quantum: parked CPUs are empty, every
// parkable CPU is parked (the parkDirty contract — a missed setter
// leaves an empty CPU unparked forever), and the parked packages and
// membership bitmaps agree with first-principles scans.
func (m *Machine) checkParkInvariants() error {
	if m.nowMS == 0 {
		return nil // never stepped: the park sweep has not run yet
	}
	layout := m.Cfg.Layout
	nParked := 0
	for c := range m.parked {
		rq := m.Sched.RQs[c]
		if m.parked[c] {
			nParked++
			if rq.Current != nil || len(rq.Queued()) > 0 {
				return fmt.Errorf("cpu %d parked with work (current=%v queued=%d)",
					c, rq.Current != nil, len(rq.Queued()))
			}
			continue
		}
		// The parkDirty contract: after the end-of-step park sweep, a
		// CPU with nothing to run and no in-flight P-state transition
		// must be parked. An unparked empty CPU means a queue-emptying
		// path forgot to set parkDirty.
		if rq.Current == nil && len(rq.Queued()) == 0 &&
			!(m.dvfsOn && m.pendingIdx[c] >= 0) {
			return fmt.Errorf("cpu %d parkable but unparked after a settled quantum (missed parkDirty setter)", c)
		}
	}
	if nParked != m.nParked {
		return fmt.Errorf("nParked %d vs %d parked flags", m.nParked, nParked)
	}
	// Active-CPU bitmap: un-parked CPUs, plus every parked CPU when
	// scalar throttles read the metrics each step.
	for c := range m.parked {
		want := !m.parked[c] || !m.metricsDeferred()
		if got := m.liveCPUBits[c>>6]&(1<<(uint(c)&63)) != 0; got != want {
			return fmt.Errorf("cpu %d live bit %v, want %v", c, got, want)
		}
	}
	cores := layout.Cores()
	threads := layout.ThreadsPerPackage
	for p := range m.pkgParked {
		if m.pkgParked[p] {
			for core := p * cores; core < (p+1)*cores; core++ {
				for t := 0; t < threads; t++ {
					if !m.parked[int(layout.CPUOfCore(core, t))] {
						return fmt.Errorf("package %d parked with unparked cpu %d", p, layout.CPUOfCore(core, t))
					}
				}
			}
		}
		for core := p * cores; core < (p+1)*cores; core++ {
			want := !m.pkgParked[p]
			if got := m.liveCoreBits[core>>6]&(1<<(uint(core)&63)) != 0; got != want {
				return fmt.Errorf("core %d live bit %v, want %v (package %d parked=%v)", core, got, want, p, m.pkgParked[p])
			}
		}
	}
	return nil
}
