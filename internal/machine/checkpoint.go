// Checkpoint/Restore serialize the complete simulation state of a
// Machine, and Branch clones a live machine in-process. A restored (or
// branched) machine continues bit-exactly: the same trace events, the
// same energies and temperatures, the same scheduling decisions — on
// every engine, faults included.
//
// The split between what travels and what rebuilds is deliberate:
//
//   - Everything that evolves during a run travels: clocks, rng
//     streams, task phase machines, runqueue occupancy, dispatch
//     accounting, counter banks, profile averages, thermal node
//     temperatures, throttle latches and tick counters, DVFS P-states
//     and pending transitions, async parking/settling state, the fault
//     injector and the recalibration loop, and every metric.
//   - Everything derivable from the Config rebuilds through New:
//     the topology and its flat CPU maps and per-domain core lists,
//     budgets, throttle groups, hooks, scratch buffers, and the engine
//     runtimes.
//   - Pure caches are dropped: the thermal sample-weight memo, the
//     scheduler's runqueue occupancy ledger (node, package, queued and
//     idle counts, rebuilt from the restored queues by RebuildLoads),
//     the materialized step lists (recomputed from restored bitmaps),
//     and the deadline wheel's arming — its due tables are static and
//     its armed heaps are a function of runqueue occupancy, so
//     re-running AttachDeadlines after the queues are restored re-arms
//     it exactly (stale heap entries are lazily discarded by design).
package machine

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"sort"

	"energysched/internal/counters"
	"energysched/internal/energy"
	"energysched/internal/faults"
	"energysched/internal/profile"
	"energysched/internal/rng"
	"energysched/internal/sched"
	"energysched/internal/thermal"
	"energysched/internal/topology"
	"energysched/internal/trace"
	"energysched/internal/units"
	"energysched/internal/workload"
)

// CheckpointVersion is the current byte-format version. Restore rejects
// images with any other version; the format is not forward- or
// backward-compatible across versions. Version 2 renumbered
// Config.Engine (async became the zero value when the batched engine
// was retired), so a version-1 image would restore onto the wrong
// engine. Version 3 dropped the per-step phase markers (always at their
// reset values between Run calls) and the Config fields that became
// constants. Version 4 dropped the async engine's dormant-throttle
// flags and throttle settle times. Version 5 follows the gob image
// with a CRC-32 trailer (Checkpoint) and drops the carried quantum cap,
// which New now derives from Config.MaxQuantumMS as configured.
const CheckpointVersion = 5

// taskSnapshot is one task's complete state: the scheduler's view
// (timeslice, CPU, warmup, profile) and the workload's (phase machine,
// private rng), plus the machine-level bookkeeping (sleep state).
type taskSnapshot struct {
	Work           workload.TaskState
	ProgIdx        int // index into machineState.Progs
	Binary         uint64
	Nice           int
	HasProfile     bool
	Profile        profile.ExpAvgState
	HasUnits       bool
	Units          [units.NumUnits]profile.ExpAvgState
	SliceLeft      float64
	CPU            int
	WarmupLeft     float64
	Migrations     int
	NodeMigrations int
	FirstSliceDone bool
	WakeAtMS       int64
	Sleeping       bool
}

// rqSnapshot is one runqueue's occupancy, by task ID.
type rqSnapshot struct {
	CurrentID int // -1 when the CPU is idle
	QueuedIDs []int
}

// dispatchSnapshot is one CPU's in-flight dispatch accounting.
type dispatchSnapshot struct {
	TaskID    int // -1 when no task occupies the CPU
	Counts    counters.Counts
	RanMS     float64
	EstJ      float64
	EstUnitsJ units.Energies
	Scaled    bool
}

// throttleSnapshot is one throttle's limit (possibly fallback-scaled),
// hysteresis latch, and tick accounting.
type throttleSnapshot struct {
	LimitW      float64
	Engaged     bool
	HaltedTicks int64
	TotalTicks  int64
}

// dvfsSnapshot is the per-CPU P-state vector and pending transitions.
type dvfsSnapshot struct {
	FreqIdx    []int
	SpeedScale []float64
	PowScale   []float64
	PendingIdx []int
	PendingAt  []int64
	NPending   int
	DownTicks  []int64
}

// asyncSnapshot is the async/parallel engines' parking and lazy-settle
// state. The live-CPU/live-core bitmaps are not stored: they are a pure
// function of (parked, pkgParked) and whether the machine has scalar
// throttles, and are recomputed at restore per the same invariant the
// oracle checks.
type asyncSnapshot struct {
	Parked       []bool
	CPUSettledMS []int64
	PkgParked    []bool
	PkgSettledMS []int64
	ParkDirty    bool
}

// faultsSnapshot is the injector's evolving state plus the machine-side
// recalibration-window baselines.
type faultsSnapshot struct {
	Injector      faults.InjectorState
	RecalPrev     counters.Counts
	RecalIdlePrev int64
	FallbackOn    bool
}

// progCount is one (program name, completions) pair; maps are
// serialized as sorted pair slices so identical states encode to
// identical bytes.
type progCount struct {
	Name  string
	Count int64
}

// machineState is the gob image of a Machine. Field order is part of
// the byte format.
type machineState struct {
	Version int
	// Cfg is the machine's resolved Config with the two pointer fields
	// that must not travel nil'd out: the Trace recorder (supplied
	// fresh at restore) and the Estimator (carried exactly as
	// EstWeights/EstHaltPower instead, because under fault injection
	// the live weights have diverged from the configured ones).
	Cfg Config

	EstWeights   energy.Weights
	EstHaltPower float64

	NowMS         int64
	StatsBaseMS   int64
	NextID        int
	Rng           uint64
	DeadlineFires [4]int64

	// Progs holds the distinct programs of the live tasks, by value —
	// programs are immutable, so a decoded copy behaves identically.
	// progPtrs is the in-process fast path: Branch shares the original
	// pointers and never touches Progs (gob skips unexported fields).
	Progs    []workload.Program
	progPtrs []*workload.Program

	Tasks      []taskSnapshot // ascending task ID
	Sleepers   []int          // task IDs in sleeper-list order
	RQs        []rqSnapshot   // per logical CPU
	Dispatches []dispatchSnapshot
	Banks      []counters.Counts

	Power              []profile.ExpAvgState // per-CPU thermal-power averages
	Util               []sched.UtilState
	Placement          []profile.PlacementEntry
	MigrationCount     int64
	MigrationsByReason [4]int64

	NodeTempC     []float64
	UnitTempC     [][]float64 // per core × unit, nil without UnitThermal
	Throttles     []throttleSnapshot
	UnitThrottles []throttleSnapshot

	DVFS  *dvfsSnapshot
	Async *asyncSnapshot

	PrevHalt  []bool
	ExecSpeed []float64
	TruePower []float64

	IdleTicks   []int64
	HaltedTicks []int64

	Completions       int64
	CompletionsByProg []progCount
	WorkDoneMS        float64
	TrueEnergyJ       float64
	PStateSwitches    int64
	PeakTempC         float64
	Migrations        []MigrationEvent
	TPSeries          [][]float64 // per-CPU monitor samples
	TempSeries        [][]float64 // per-core monitor samples

	Faults             *faultsSnapshot
	EstimationErrJ     float64
	ResidualW          float64
	RecalibrationCount int64
	FallbackTicks      int64
}

// captureState snapshots the machine into a machineState. It is
// strictly read-only on m, so one captured state can serve any number
// of concurrent applyState calls (the farm daemon branches many
// machines from a single cached template).
func (m *Machine) captureState() *machineState {
	st := &machineState{
		Version:       CheckpointVersion,
		Cfg:           m.Cfg,
		EstWeights:    m.Est.Weights,
		EstHaltPower:  m.Est.HaltPower,
		NowMS:         m.nowMS,
		StatsBaseMS:   m.statsBaseMS,
		NextID:        m.nextID,
		Rng:           m.rng.State(),
		DeadlineFires: m.deadlineFires,

		MigrationCount:     m.Sched.MigrationCount,
		MigrationsByReason: m.Sched.MigrationsByReason,

		PrevHalt:  append([]bool(nil), m.prevHalt...),
		ExecSpeed: append([]float64(nil), m.execSpeed...),
		TruePower: append([]float64(nil), m.truePower...),

		IdleTicks:   append([]int64(nil), m.idleTicks...),
		HaltedTicks: append([]int64(nil), m.haltedTicks...),

		Completions:    m.Completions,
		WorkDoneMS:     m.WorkDoneMS,
		TrueEnergyJ:    m.TrueEnergyJ,
		PStateSwitches: m.PStateSwitches,
		PeakTempC:      m.peakTempC,
		Migrations:     append([]MigrationEvent(nil), m.Migrations...),

		EstimationErrJ:     m.EstimationErrJ,
		ResidualW:          m.ResidualW,
		RecalibrationCount: m.RecalibrationCount,
		FallbackTicks:      m.FallbackTicks,
	}
	st.Cfg.Trace = nil
	st.Cfg.Estimator = nil

	// Tasks in ascending ID order, deduplicating their programs by
	// pointer identity (respawned instances share one Program).
	ids := make([]int, 0, len(m.tasks))
	for id := range m.tasks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	progIdx := make(map[*workload.Program]int)
	st.Tasks = make([]taskSnapshot, 0, len(ids))
	for _, id := range ids {
		ts := m.tasks[id]
		pi, ok := progIdx[ts.prog]
		if !ok {
			pi = len(st.progPtrs)
			progIdx[ts.prog] = pi
			st.progPtrs = append(st.progPtrs, ts.prog)
			st.Progs = append(st.Progs, *ts.prog)
		}
		snap := taskSnapshot{
			Work:           ts.work.State(),
			ProgIdx:        pi,
			Binary:         ts.st.Binary,
			Nice:           ts.st.Nice,
			SliceLeft:      ts.st.SliceLeft,
			CPU:            int(ts.st.CPU),
			WarmupLeft:     ts.st.WarmupLeft,
			Migrations:     ts.st.Migrations,
			NodeMigrations: ts.st.NodeMigrations,
			FirstSliceDone: ts.firstSliceDone,
			WakeAtMS:       ts.wakeAtMS,
			Sleeping:       ts.sleeping,
		}
		if ts.st.Profile != nil {
			snap.HasProfile = true
			snap.Profile = ts.st.Profile.State()
		}
		if ts.st.Units != nil {
			snap.HasUnits = true
			snap.Units = ts.st.Units.State()
		}
		st.Tasks = append(st.Tasks, snap)
	}

	st.Sleepers = make([]int, 0, len(m.sleepers))
	for _, ts := range m.sleepers {
		st.Sleepers = append(st.Sleepers, ts.st.ID)
	}

	st.RQs = make([]rqSnapshot, len(m.Sched.RQs))
	for c, rq := range m.Sched.RQs {
		rs := rqSnapshot{CurrentID: -1}
		if rq.Current != nil {
			rs.CurrentID = rq.Current.ID
		}
		for _, t := range rq.Queued() {
			rs.QueuedIDs = append(rs.QueuedIDs, t.ID)
		}
		st.RQs[c] = rs
	}

	st.Dispatches = make([]dispatchSnapshot, len(m.dispatches))
	for c := range m.dispatches {
		d := &m.dispatches[c]
		ds := dispatchSnapshot{TaskID: -1, Counts: d.counts, RanMS: d.ranMS,
			EstJ: d.estJ, EstUnitsJ: d.estUnitsJ, Scaled: d.scaled}
		if d.task != nil {
			ds.TaskID = d.task.st.ID
		}
		st.Dispatches[c] = ds
	}

	st.Banks = make([]counters.Counts, len(m.banks))
	for c := range m.banks {
		st.Banks[c] = m.banks[c].Read()
	}

	st.Power = make([]profile.ExpAvgState, len(m.Sched.Power))
	for c := range m.Sched.Power {
		st.Power[c] = m.Sched.Power[c].ThermalState()
	}
	st.Util = make([]sched.UtilState, len(m.Sched.Util))
	for c := range m.Sched.Util {
		st.Util[c] = m.Sched.Util[c].State()
	}
	st.Placement = m.Sched.Placement.Entries()

	st.NodeTempC = make([]float64, len(m.nodes))
	for i, n := range m.nodes {
		st.NodeTempC[i] = n.TempC
	}
	if m.unitNodes != nil {
		st.UnitTempC = make([][]float64, len(m.unitNodes))
		for c, uns := range m.unitNodes {
			temps := make([]float64, len(uns))
			for u, n := range uns {
				temps[u] = n.TempC
			}
			st.UnitTempC[c] = temps
		}
	}
	st.Throttles = captureThrottles(m.throttles)
	st.UnitThrottles = captureThrottles(m.unitThrottles)

	if m.dvfsOn {
		st.DVFS = &dvfsSnapshot{
			FreqIdx:    append([]int(nil), m.freqIdx...),
			SpeedScale: append([]float64(nil), m.speedScale...),
			PowScale:   append([]float64(nil), m.powScale...),
			PendingIdx: append([]int(nil), m.pendingIdx...),
			PendingAt:  append([]int64(nil), m.pendingAt...),
			NPending:   m.nPending,
			DownTicks:  append([]int64(nil), m.downTicks...),
		}
	}

	if m.async {
		st.Async = &asyncSnapshot{
			Parked:       append([]bool(nil), m.parked...),
			CPUSettledMS: append([]int64(nil), m.cpuSettledMS...),
			PkgParked:    append([]bool(nil), m.pkgParked...),
			PkgSettledMS: append([]int64(nil), m.pkgSettledMS...),
			ParkDirty:    m.parkDirty,
		}
	}

	st.CompletionsByProg = make([]progCount, 0, len(m.CompletionsByProg))
	for name, n := range m.CompletionsByProg {
		st.CompletionsByProg = append(st.CompletionsByProg, progCount{Name: name, Count: n})
	}
	sort.Slice(st.CompletionsByProg, func(i, j int) bool {
		return st.CompletionsByProg[i].Name < st.CompletionsByProg[j].Name
	})

	if m.tpSeries != nil {
		st.TPSeries = make([][]float64, len(m.tpSeries))
		for i, s := range m.tpSeries {
			st.TPSeries[i] = append([]float64(nil), s.Values...)
		}
	}
	if m.tempSeries != nil {
		st.TempSeries = make([][]float64, len(m.tempSeries))
		for i, s := range m.tempSeries {
			st.TempSeries[i] = append([]float64(nil), s.Values...)
		}
	}

	if m.faults != nil {
		st.Faults = &faultsSnapshot{
			Injector:      m.faults.State(),
			RecalPrev:     m.recalPrev,
			RecalIdlePrev: m.recalIdlePrev,
			FallbackOn:    m.fallbackOn,
		}
	}
	return st
}

func captureThrottles(ths []*thermal.Throttle) []throttleSnapshot {
	if ths == nil {
		return nil
	}
	out := make([]throttleSnapshot, len(ths))
	for i, th := range ths {
		out[i] = throttleSnapshot{LimitW: th.LimitW, Engaged: th.Engaged(),
			HaltedTicks: th.HaltedTicks, TotalTicks: th.TotalTicks}
	}
	return out
}

// applyState builds a fresh machine from a captured state. st is
// treated as read-only; every slice is copied into the new machine.
func applyState(st *machineState, rec *trace.Recorder) (*Machine, error) {
	if st.Version != CheckpointVersion {
		return nil, fmt.Errorf("machine: checkpoint version %d, want %d", st.Version, CheckpointVersion)
	}
	cfg := st.Cfg
	cfg.Trace = rec
	// Feed the live weights through the Config so New's derived idle
	// constants come from the exact serialized halt power.
	cfg.Estimator = &energy.Estimator{Weights: st.EstWeights, HaltPower: st.EstHaltPower}
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := st.checkShape(m); err != nil {
		return nil, err
	}
	// Under fault injection New mis-calibrated a private copy of the
	// estimator — but the serialized weights already carry every
	// mis-calibration, drift, and recalibration applied so far.
	// Overwrite with the exact values (HaltPower is never perturbed, so
	// New's idle constants stand).
	m.Est = &energy.Estimator{Weights: st.EstWeights, HaltPower: st.EstHaltPower}

	m.nowMS = st.NowMS
	m.statsBaseMS = st.StatsBaseMS
	m.nextID = st.NextID
	m.rng.SetState(st.Rng)
	m.deadlineFires = st.DeadlineFires
	m.resetPhaseMarkers()

	// Programs: the in-process path shares the originals (immutable);
	// the byte path materializes pointers into the decoded values.
	progs := st.progPtrs
	if progs == nil {
		progs = make([]*workload.Program, len(st.Progs))
		for i := range st.Progs {
			progs[i] = &st.Progs[i]
		}
	}

	nCPU := len(m.Sched.RQs)
	for i := range st.Tasks {
		snap := &st.Tasks[i]
		if snap.ProgIdx < 0 || snap.ProgIdx >= len(progs) {
			return nil, fmt.Errorf("machine: task %d references program %d of %d", snap.Work.ID, snap.ProgIdx, len(progs))
		}
		if snap.CPU < 0 || snap.CPU >= nCPU {
			return nil, fmt.Errorf("machine: task %d on CPU %d of %d", snap.Work.ID, snap.CPU, nCPU)
		}
		task := &sched.Task{
			ID:             snap.Work.ID,
			Binary:         snap.Binary,
			Nice:           snap.Nice,
			SliceLeft:      snap.SliceLeft,
			CPU:            topology.CPUID(snap.CPU),
			WarmupLeft:     snap.WarmupLeft,
			Migrations:     snap.Migrations,
			NodeMigrations: snap.NodeMigrations,
		}
		if snap.HasProfile {
			task.Profile = profile.NewTaskProfile()
			task.Profile.SetState(snap.Profile)
		}
		if snap.HasUnits {
			task.Units = units.NewProfile()
			task.Units.SetState(snap.Units)
		}
		m.tasks[task.ID] = &taskState{
			st:             task,
			work:           workload.RestoreTask(progs[snap.ProgIdx], snap.Work),
			prog:           progs[snap.ProgIdx],
			firstSliceDone: snap.FirstSliceDone,
			wakeAtMS:       snap.WakeAtMS,
			sleeping:       snap.Sleeping,
		}
	}
	lookup := func(id int) (*taskState, error) {
		ts, ok := m.tasks[id]
		if !ok {
			return nil, fmt.Errorf("machine: checkpoint references unknown task %d", id)
		}
		return ts, nil
	}
	// onRQ looks up a task queued on runqueue c, which must be the CPU
	// the task itself records.
	onRQ := func(id, c int) (*sched.Task, error) {
		ts, err := lookup(id)
		if err != nil {
			return nil, err
		}
		if int(ts.st.CPU) != c {
			return nil, fmt.Errorf("machine: task %d on runqueue %d records CPU %d", id, c, ts.st.CPU)
		}
		return ts.st, nil
	}

	// Runqueue occupancy, then the derived occupancy ledger.
	for c := range st.RQs {
		rs := &st.RQs[c]
		var cur *sched.Task
		if rs.CurrentID >= 0 {
			t, err := onRQ(rs.CurrentID, c)
			if err != nil {
				return nil, err
			}
			cur = t
		}
		queued := make([]*sched.Task, len(rs.QueuedIDs))
		for i, id := range rs.QueuedIDs {
			t, err := onRQ(id, c)
			if err != nil {
				return nil, err
			}
			queued[i] = t
		}
		m.Sched.RQs[c].SetTasks(cur, queued)
	}
	m.Sched.RebuildLoads()

	for c := range st.Power {
		m.Sched.Power[c].SetThermalState(st.Power[c])
	}
	for c := range st.Util {
		m.Sched.Util[c].SetState(st.Util[c])
	}
	m.Sched.Placement.SetEntries(st.Placement)
	m.Sched.MigrationCount = st.MigrationCount
	m.Sched.MigrationsByReason = st.MigrationsByReason

	// Re-arm the deadline wheel against the restored occupancy. The due
	// tables are position-independent; attach rebuilds the armed heaps
	// from the runqueues, exactly as the original machine's wheel would
	// present them at this instant (stale armed entries are discarded
	// lazily by design, so heap-content differences are unobservable).
	if m.async {
		m.wheel.SetNow(st.NowMS)
		m.Sched.AttachDeadlines(m.wheel)
	}

	// Sleepers in original list order: wakes are processed by walking
	// the list.
	for _, id := range st.Sleepers {
		ts, err := lookup(id)
		if err != nil {
			return nil, err
		}
		m.sleepers = append(m.sleepers, ts)
	}

	for c := range st.Dispatches {
		ds := &st.Dispatches[c]
		d := &m.dispatches[c]
		if ds.TaskID >= 0 {
			ts, err := lookup(ds.TaskID)
			if err != nil {
				return nil, err
			}
			d.task = ts
		}
		d.counts = ds.Counts
		d.ranMS = ds.RanMS
		d.estJ = ds.EstJ
		d.estUnitsJ = ds.EstUnitsJ
		d.scaled = ds.Scaled
	}

	for c := range st.Banks {
		m.banks[c].Reset()
		m.banks[c].Accumulate(st.Banks[c])
	}

	for i := range st.NodeTempC {
		m.nodes[i].TempC = st.NodeTempC[i]
	}
	for c := range st.UnitTempC {
		if len(st.UnitTempC[c]) != len(m.unitNodes[c]) {
			return nil, fmt.Errorf("machine: checkpoint has %d unit temperatures on core %d, machine %d",
				len(st.UnitTempC[c]), c, len(m.unitNodes[c]))
		}
		for u := range st.UnitTempC[c] {
			m.unitNodes[c][u].TempC = st.UnitTempC[c][u]
		}
	}
	// Throttle limits restore verbatim — under an engaged fallback they
	// are the scaled limits, while origLimitW (rebuilt by New from the
	// budgets) keeps the pre-fallback values the recovery path restores.
	restoreThrottles(m.throttles, st.Throttles)
	restoreThrottles(m.unitThrottles, st.UnitThrottles)

	if st.DVFS != nil {
		copy(m.freqIdx, st.DVFS.FreqIdx)
		copy(m.speedScale, st.DVFS.SpeedScale)
		copy(m.powScale, st.DVFS.PowScale)
		copy(m.pendingIdx, st.DVFS.PendingIdx)
		copy(m.pendingAt, st.DVFS.PendingAt)
		m.nPending = st.DVFS.NPending
		copy(m.downTicks, st.DVFS.DownTicks)
	}

	if st.Async != nil {
		copy(m.parked, st.Async.Parked)
		copy(m.cpuSettledMS, st.Async.CPUSettledMS)
		copy(m.pkgParked, st.Async.PkgParked)
		copy(m.pkgSettledMS, st.Async.PkgSettledMS)
		m.nParked = 0
		for c := range m.parked {
			if m.parked[c] {
				m.nParked++
			}
		}
		// The live sets are a function of the parking state: a CPU is
		// in the per-step path unless it is parked on a machine without
		// scalar throttles; a core steps unless its package is parked.
		// Same invariant CheckInvariants asserts.
		for c := range m.parked {
			if !m.parked[c] || !m.metricsDeferred() {
				m.setLiveCPU(c)
			} else {
				m.clearLiveCPU(c)
			}
		}
		for p := range m.pkgParked {
			m.setPkgCores(p, !m.pkgParked[p])
		}
		m.stepListDirty = true
		m.stepCoresDirty = true
		m.parkDirty = st.Async.ParkDirty
	}

	copy(m.prevHalt, st.PrevHalt)
	copy(m.execSpeed, st.ExecSpeed)
	copy(m.truePower, st.TruePower)
	copy(m.idleTicks, st.IdleTicks)
	copy(m.haltedTicks, st.HaltedTicks)

	m.Completions = st.Completions
	for _, pc := range st.CompletionsByProg {
		m.CompletionsByProg[pc.Name] = pc.Count
	}
	m.WorkDoneMS = st.WorkDoneMS
	m.TrueEnergyJ = st.TrueEnergyJ
	m.PStateSwitches = st.PStateSwitches
	m.peakTempC = st.PeakTempC
	m.Migrations = append(m.Migrations[:0], st.Migrations...)
	for i := range st.TPSeries {
		m.tpSeries[i].Values = append([]float64(nil), st.TPSeries[i]...)
	}
	for i := range st.TempSeries {
		m.tempSeries[i].Values = append([]float64(nil), st.TempSeries[i]...)
	}

	if st.Faults != nil {
		m.faults.SetState(st.Faults.Injector)
		m.recalPrev = st.Faults.RecalPrev
		m.recalIdlePrev = st.Faults.RecalIdlePrev
		m.fallbackOn = st.Faults.FallbackOn
	}
	m.EstimationErrJ = st.EstimationErrJ
	m.ResidualW = st.ResidualW
	m.RecalibrationCount = st.RecalibrationCount
	m.FallbackTicks = st.FallbackTicks

	return m, nil
}

// checkShape rejects an image whose per-CPU, per-core, per-package and
// per-throttle state does not fit the machine New built from the
// image's Config, so a malformed image fails Restore instead of
// panicking. Beyond lengths it only checks the DVFS P-state indices and
// pending count, which index the ladder on every step; it runs on every
// Branch, so it must not allocate.
func (st *machineState) checkShape(m *Machine) error {
	if (st.DVFS != nil) != m.dvfsOn || (st.Async != nil) != m.async || (st.Faults != nil) != (m.faults != nil) {
		return fmt.Errorf("machine: checkpoint DVFS/async/faults state does not match its config")
	}
	type dims struct {
		what      string
		got, want int
	}
	check := func(ds ...dims) error {
		for _, d := range ds {
			if d.got != d.want {
				return fmt.Errorf("machine: checkpoint has %d %s, machine %d", d.got, d.what, d.want)
			}
		}
		return nil
	}
	err := check(
		dims{"runqueues", len(st.RQs), len(m.Sched.RQs)},
		dims{"dispatches", len(st.Dispatches), len(m.dispatches)},
		dims{"counter banks", len(st.Banks), len(m.banks)},
		dims{"power trackers", len(st.Power), len(m.Sched.Power)},
		dims{"utilization trackers", len(st.Util), len(m.Sched.Util)},
		dims{"thermal nodes", len(st.NodeTempC), len(m.nodes)},
		dims{"unit-thermal cores", len(st.UnitTempC), len(m.unitNodes)},
		dims{"throttles", len(st.Throttles), len(m.throttles)},
		dims{"unit throttles", len(st.UnitThrottles), len(m.unitThrottles)},
		dims{"halt flags", len(st.PrevHalt), len(m.prevHalt)},
		dims{"execution speeds", len(st.ExecSpeed), len(m.execSpeed)},
		dims{"true powers", len(st.TruePower), len(m.truePower)},
		dims{"idle tick counts", len(st.IdleTicks), len(m.idleTicks)},
		dims{"halted tick counts", len(st.HaltedTicks), len(m.haltedTicks)},
		dims{"thermal-power series", len(st.TPSeries), len(m.tpSeries)},
		dims{"temperature series", len(st.TempSeries), len(m.tempSeries)},
	)
	if err == nil && st.DVFS != nil {
		d := st.DVFS
		err = check(
			dims{"P-states", len(d.FreqIdx), len(m.freqIdx)},
			dims{"speed scales", len(d.SpeedScale), len(m.speedScale)},
			dims{"power scales", len(d.PowScale), len(m.powScale)},
			dims{"pending P-states", len(d.PendingIdx), len(m.pendingIdx)},
			dims{"pending transition times", len(d.PendingAt), len(m.pendingAt)},
			dims{"down-clocked tick counts", len(d.DownTicks), len(m.downTicks)},
		)
		if err == nil {
			err = d.checkPStates(len(m.dvfsCfg.Ladder))
		}
	}
	if err == nil && st.Async != nil {
		a := st.Async
		err = check(
			dims{"parked flags", len(a.Parked), len(m.parked)},
			dims{"CPU settle times", len(a.CPUSettledMS), len(m.cpuSettledMS)},
			dims{"package parked flags", len(a.PkgParked), len(m.pkgParked)},
			dims{"package settle times", len(a.PkgSettledMS), len(m.pkgSettledMS)},
		)
	}
	return err
}

// checkPStates rejects current or pending P-state indices outside an
// n-state ladder (pending may be -1: none) and a pending count that
// disagrees with the pending entries. The slices' lengths are already
// checked equal.
func (d *dvfsSnapshot) checkPStates(n int) error {
	pending := 0
	for c, idx := range d.FreqIdx {
		if idx < 0 || idx >= n {
			return fmt.Errorf("machine: checkpoint CPU %d at P-state %d, ladder has %d", c, idx, n)
		}
		switch p := d.PendingIdx[c]; {
		case p >= n || p < -1:
			return fmt.Errorf("machine: checkpoint CPU %d pending P-state %d, ladder has %d", c, p, n)
		case p >= 0:
			pending++
		}
	}
	if d.NPending != pending {
		return fmt.Errorf("machine: checkpoint counts %d pending P-states, entries hold %d", d.NPending, pending)
	}
	return nil
}

func restoreThrottles(ths []*thermal.Throttle, snaps []throttleSnapshot) {
	for i, s := range snaps {
		th := ths[i]
		th.LimitW = s.LimitW
		th.SetEngaged(s.Engaged)
		th.HaltedTicks = s.HaltedTicks
		th.TotalTicks = s.TotalTicks
	}
}

// Checkpoint serializes the machine's complete simulation state into a
// versioned gob image with a checksum trailer (sealImage). The machine
// must be between Run calls (the
// per-step scratch state is not captured mid-step). Restore rebuilds a
// machine that continues bit-exactly — identical trace events, metrics,
// energies, and temperatures — on the same engine, faults included.
// Identical machine states produce identical bytes, so images can key
// content-addressed caches.
func (m *Machine) Checkpoint() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m.captureState()); err != nil {
		return nil, err
	}
	return sealImage(buf.Bytes()), nil
}

// checksumLen is the size of an image's trailer: the CRC-32 (IEEE) of
// the gob bytes before it, big-endian.
const checksumLen = 4

// sealImage returns the gob image followed by its checksum trailer, in
// an exactly sized slice: images are long-lived (the farm caches them),
// so no spare capacity of the encoder's doubling buffer stays behind.
func sealImage(img []byte) []byte {
	out := make([]byte, len(img)+checksumLen)
	copy(out, img)
	binary.BigEndian.PutUint32(out[len(img):], crc32.ChecksumIEEE(img))
	return out
}

// Restore rebuilds a machine from a Checkpoint image. rec becomes the
// machine's trace recorder (nil disables tracing); it starts empty —
// events recorded before the checkpoint are not replayed. The checksum
// trailer is verified before anything is decoded, so a truncated or
// corrupted image gets an error.
func Restore(data []byte, rec *trace.Recorder) (*Machine, error) {
	if len(data) < checksumLen {
		return nil, fmt.Errorf("machine: checkpoint of %d bytes has no checksum", len(data))
	}
	img := data[:len(data)-checksumLen]
	if got, want := crc32.ChecksumIEEE(img), binary.BigEndian.Uint32(data[len(img):]); got != want {
		return nil, fmt.Errorf("machine: checkpoint checksum %08x, image sums to %08x", want, got)
	}
	var st machineState
	if err := gob.NewDecoder(bytes.NewReader(img)).Decode(&st); err != nil {
		return nil, fmt.Errorf("machine: decoding checkpoint: %w", err)
	}
	return applyState(&st, rec)
}

// Branch clones the machine in-process without serializing: the clone
// shares the immutable Program definitions but owns every piece of
// mutable state, so parent and clone run independently (and, absent a
// Reseed, identically). The receiver is only read, so many branches may
// be taken from one machine — the fan-out primitive of warm-started
// parameter sweeps.
func (m *Machine) Branch(rec *trace.Recorder) (*Machine, error) {
	return applyState(m.captureState(), rec)
}

// Reseed folds a divergence seed into every random stream of the
// machine — the machine's own rng, each task's private workload stream,
// and the fault injector's — so branches of a common checkpoint explore
// independent futures. Reseed with the same value on identical machines
// keeps them identical; XOR-folding (rather than replacing) preserves
// the streams' statistical independence from one another. Reseed(0) is
// NOT the identity; use distinct seeds per branch and no call at all
// for the "same future" branch.
func (m *Machine) Reseed(seed uint64) {
	src := rng.New(seed)
	m.rng.SetState(m.rng.State() ^ src.Uint64())
	ids := make([]int, 0, len(m.tasks))
	for id := range m.tasks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		ts := m.tasks[id]
		ts.work.SetRngState(ts.work.RngState() ^ src.Uint64())
	}
	if m.faults != nil {
		fst := m.faults.State()
		fst.Rng ^= src.Uint64()
		m.faults.SetState(fst)
	}
}
