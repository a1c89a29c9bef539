package machine

import (
	"testing"

	"energysched/internal/sched"
	"energysched/internal/topology"
	"energysched/internal/trace"
	"energysched/internal/workload"
)

// Colliding periods: balance, idle-pull, and hot-check all share one
// 10 ms grid, so classes repeatedly land on the same instant on the
// same CPU. The event-driven due lists must resolve the ties (balance
// shadows idle pull; hot fires after the balance pass of the same CPU)
// exactly as the lockstep modulo scan does — byte-identical traces.
func TestDeadlineTieBreakEquivalence(t *testing.T) {
	build := func(e Engine) *Machine {
		pol := sched.DefaultConfig()
		pol.BalancePeriodMS = sched.IdlePullPeriodMS
		pol.HotCheckPeriodMS = sched.IdlePullPeriodMS
		m := MustNew(Config{
			Engine: e, Layout: topology.XSeries445NoSMT(),
			Sched: pol, Seed: 19,
			PackageMaxPowerW: []float64{45},
			ThrottleEnabled:  true, Scope: ThrottlePerLogical,
			RespawnFinished: true,
		})
		cat := catalog()
		m.SpawnN(workload.WithWork(cat.Bitcnts(), 2000), 3)
		m.SpawnN(cat.Sshd(), 2)
		return m
	}
	lock := build(EngineLockstep)
	lock.Cfg.Trace = trace.New(0)
	lock.Run(20_000)
	lockCSV := traceCSV(t, lock.Cfg.Trace)
	got := build(EngineAsync)
	got.Cfg.Trace = trace.New(0)
	got.Run(20_000)
	assertEquivalent(t, lock, got)
	if gotCSV := traceCSV(t, got.Cfg.Trace); gotCSV != lockCSV {
		t.Errorf("tie-break trace differs: %s", firstTraceDiff(lockCSV, gotCSV))
	}
}

// A parked CPU must keep no hot or governor deadline armed; work
// landing on it (spawn placement here) must re-arm its classes in the
// same instant it rejoins the per-step path.
func TestDeadlineRearmAfterParkedCPUSettles(t *testing.T) {
	m := MustNew(Config{
		Engine: EngineAsync, Layout: topology.Server64(),
		Sched: sched.DefaultConfig(), Seed: 5,
		PackageMaxPowerW: []float64{120},
	})
	m.Run(1_000) // empty machine: everything parks
	if m.nParked != m.Cfg.Layout.NumLogical() {
		t.Fatalf("idle machine parked %d of %d CPUs", m.nParked, m.Cfg.Layout.NumLogical())
	}
	if got := m.wheel.NextHotDeadline(m.nowMS); got != sched.NoDeadline {
		t.Fatalf("fully parked machine keeps a hot deadline armed at %d", got)
	}
	if n := len(m.stepCPUs()); n != 0 {
		t.Fatalf("fully parked machine keeps %d CPUs in the step path", n)
	}

	task := m.Spawn(catalog().Bitcnts())
	cpu := int(task.CPU)
	if m.parked[cpu] {
		t.Fatalf("spawn placement left CPU %d parked", cpu)
	}
	m.Run(10) // dispatch: the singleton CPU becomes hot-checkable
	want := m.wheel.NextHot(m.nowMS, cpu)
	if got := m.wheel.NextHotDeadline(m.nowMS); got != want {
		t.Fatalf("settled CPU's hot deadline = %d, want its on-grid %d", got, want)
	}
	found := false
	for _, c := range m.stepCPUs() {
		if int(c) == cpu {
			found = true
		}
	}
	if !found {
		t.Fatalf("activated CPU %d missing from the step path", cpu)
	}
}

// The occupancy ledger's queued/idle counts must agree with full scans
// after a churny run, and the diagnostic fire counters must show the
// event-driven engine actually visiting deadline work. More tasks than
// CPUs keep tasks queued, so balance passes are not skipped.
func TestDeadlineCountersAfterRun(t *testing.T) {
	m := MustNew(Config{
		Engine: EngineAsync, Layout: topology.XSeries445NoSMT(),
		Sched: sched.DefaultConfig(), Seed: 23,
		PackageMaxPowerW: []float64{60},
		RespawnFinished:  true,
	})
	cat := catalog()
	m.SpawnN(workload.WithWork(cat.Bitcnts(), 1500), 9)
	m.SpawnN(cat.Sshd(), 3)
	m.Run(30_000)
	if got, want := m.Sched.QueuedCount(), m.Sched.TotalQueued(); got != want {
		t.Errorf("QueuedCount = %d, want TotalQueued %d", got, want)
	}
	idle := 0
	for _, rq := range m.Sched.RQs {
		if rq.Idle() {
			idle++
		}
	}
	if got := m.Sched.IdleCPUCount(); got != idle {
		t.Errorf("IdleCPUCount = %d, want %d", got, idle)
	}
	bal, _, hot, _ := m.DeadlineFires()
	if bal == 0 || hot == 0 {
		t.Errorf("deadline fires bal=%d hot=%d; event-driven path not exercised", bal, hot)
	}
}

// With fewer CPU-bound tasks than CPUs and a power budget no core
// reaches, no task ever waits in a queue, so every balance and
// idle-pull pass is a no-op, and no core's thermal sum ever nears its
// hot trigger, so every hot check is one too: the async engine must
// skip them all and still match the lockstep engine, which runs every
// pass, byte for byte.
func TestNoQueueSkipsBalancePasses(t *testing.T) {
	build := func(e Engine) *Machine {
		m := MustNew(Config{
			Engine: e, Layout: topology.XSeries445NoSMT(),
			Sched: sched.DefaultConfig(), Seed: 29,
			PackageMaxPowerW: []float64{200},
			Trace:            trace.New(0),
		})
		m.SpawnN(catalog().Bitcnts(), 4)
		return m
	}
	lock := build(EngineLockstep)
	lock.Run(10_000)
	got := build(EngineAsync)
	got.Run(10_000)
	assertEquivalent(t, lock, got)
	if lockCSV, gotCSV := traceCSV(t, lock.Cfg.Trace), traceCSV(t, got.Cfg.Trace); gotCSV != lockCSV {
		t.Errorf("trace differs from lockstep: %s", firstTraceDiff(lockCSV, gotCSV))
	}
	bal, idle, hot, _ := got.DeadlineFires()
	if bal != 0 || idle != 0 || hot != 0 {
		t.Errorf("deadline fires bal=%d idle=%d hot=%d with nothing ever queued or hot, want 0", bal, idle, hot)
	}
}

// The quantum is uncapped unless the config pins MaxQuantumMS, on
// throttled machines too: every throttle horizon is predicted in closed
// form and re-checked inside windows, so a cap protects nothing.
func TestQuantumCapLift(t *testing.T) {
	base := Config{
		Layout: topology.XSeries445NoSMT(),
		Sched:  sched.DefaultConfig(), Seed: 1,
		PackageMaxPowerW: []float64{60},
	}
	if m := MustNew(base); m.maxQuantum != unboundedQuantumMS {
		t.Errorf("throttle-less machine kept cap %d", m.maxQuantum)
	}
	pinned := base
	pinned.MaxQuantumMS = 32
	if m := MustNew(pinned); m.maxQuantum != 32 {
		t.Errorf("explicit MaxQuantumMS overridden: %d", m.maxQuantum)
	}
	throttled := base
	throttled.ThrottleEnabled = true
	throttled.Scope = ThrottlePerLogical
	if m := MustNew(throttled); m.maxQuantum != unboundedQuantumMS {
		t.Errorf("throttled machine kept cap %d", m.maxQuantum)
	}
	throttled.MaxQuantumMS = -1
	if _, err := New(throttled); err == nil {
		t.Error("negative MaxQuantumMS accepted")
	}
}

// A fully idle, unmonitored machine must cross a long horizon in very
// few quanta once the cap is lifted — the O(1)-idle-quanta contract.
func TestLiftedCapIdleStepsAreFew(t *testing.T) {
	m := MustNew(Config{
		Layout: topology.Server64(),
		Sched:  sched.DefaultConfig(), Seed: 1,
		PackageMaxPowerW: []float64{120},
	})
	steps := 0
	start := m.NowMS()
	for m.NowMS() < start+600_000 {
		limit := start + 600_000 - m.NowMS()
		if limit > m.maxQuantum {
			limit = m.maxQuantum
		}
		m.step(limit)
		steps++
	}
	if steps > 4 {
		t.Errorf("idle 10-minute horizon took %d steps; cap lift not effective", steps)
	}
}
