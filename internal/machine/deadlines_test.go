package machine

import (
	"math/rand"
	"testing"

	"energysched/internal/dvfs"
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

// A fully parked machine has no hot deadline to plan for; work landing
// on a parked CPU (spawn placement here) must put it back on the
// per-step path, where the planner finds its hot instant once its task
// runs alone.
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
	if got := m.firstHotDeadline(m.nowMS); got != sched.NoDeadline {
		t.Fatalf("fully parked machine plans a hot deadline at %d", got)
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
	if got := m.firstHotDeadline(m.nowMS); got != want {
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

// deadlineQueries returns the instants the planner's start methods are
// asked at after a chunk: the machine's clock, a later one, and
// instants behind the clock and behind the previous chunk's queries.
func deadlineQueries(r *rand.Rand, now, prev int64) []int64 {
	return []int64{now, now + r.Int63n(300), max(0, now-1-r.Int63n(300)), max(0, prev-1-r.Int63n(50))}
}

// firstHotDeadline is the minimum of NextHot over every CPU that
// passes sched.HotCheck's first guard (one running task, a power
// budget), whatever the run did before: brute force over all CPUs,
// parked ones included, on an async machine whose tasks block, wake
// and finish, after each chunk of a run cut at random lengths, and
// also at instants behind the machine's clock and behind earlier
// queries. Some packages have no budget and more tasks than CPUs keep
// some queues long, so each half of the guard decides the answer at
// some query (checked below). The second policy puts balance, idle
// pull and hot checks on one 10 ms grid, where CPU 0's classes tie.
func TestFirstHotDeadlineMatchesBruteForce(t *testing.T) {
	tied := sched.DefaultConfig()
	tied.BalancePeriodMS = sched.IdlePullPeriodMS
	tied.HotCheckPeriodMS = sched.IdlePullPeriodMS
	for i, pol := range []sched.Config{sched.DefaultConfig(), tied} {
		m := MustNew(Config{
			Engine: EngineAsync, Layout: topology.XSeries445NoSMT(),
			Sched: pol, Seed: uint64(31 + i),
			PackageMaxPowerW: []float64{45, 0, 60, 0, 90, 45, 0, 60},
		})
		cat := catalog()
		m.SpawnN(workload.WithWork(cat.Bitcnts(), 1200), 4)
		m.SpawnN(workload.WithWork(cat.Memrw(), 900), 2)
		m.SpawnN(cat.Sshd(), 3)
		m.SpawnN(cat.Bash(), 2)
		r := rand.New(rand.NewSource(int64(7 + i)))
		// brute is the minimum of NextHot(q, c) over all CPUs; lenOne and
		// budget select the halves of the guard it applies.
		brute := func(q int64, lenOne, budget bool) int64 {
			d := sched.NoDeadline
			for c, rq := range m.Sched.RQs {
				if rq.Current == nil || lenOne && rq.Len() != 1 || budget && !(m.Sched.Power[c].MaxPower > 0) {
					continue
				}
				d = min(d, m.wheel.NextHot(q, c))
			}
			return d
		}
		var prev int64
		found, needLenOne, needBudget := 0, 0, 0
		for chunk := 0; chunk < 400; chunk++ {
			m.Run(1 + r.Int63n(60))
			for _, q := range deadlineQueries(r, m.nowMS, prev) {
				want := brute(q, true, true)
				if got := m.firstHotDeadline(q); got != want {
					t.Fatalf("policy %d, chunk %d (now %d): firstHotDeadline(%d) = %d, want %d",
						i, chunk, m.nowMS, q, got, want)
				}
				if want != sched.NoDeadline {
					found++
				}
				if brute(q, false, true) != want {
					needLenOne++
				}
				if brute(q, true, false) != want {
					needBudget++
				}
				prev = q
			}
		}
		if found == 0 || needLenOne == 0 || needBudget == 0 {
			t.Fatalf("policy %d: %d queries found a hot deadline, %d turned on the single-task test, %d on the budget test; want all > 0",
				i, found, needLenOne, needBudget)
		}
		t.Logf("policy %d: %d of %d queries found a hot deadline; the single-task test decided %d, the budget test %d",
			i, found, 4*400, needLenOne, needBudget)
	}
}

// firstGovDeadline is the minimum of NextGov over every occupied CPU,
// brute force over all CPUs as for the hot twin above, on an async
// ondemand machine. A CPU whose task blocks or finishes with a P-state
// transition in flight stays on the step path until it applies, and a
// long transition latency makes such idle, unparked CPUs common, so the
// occupancy test decides some answers.
func TestFirstGovDeadlineMatchesBruteForce(t *testing.T) {
	m := MustNew(Config{
		Engine: EngineAsync, Layout: topology.XSeries445NoSMT(),
		Sched: sched.DefaultConfig(), Seed: 41,
		PackageMaxPowerW: []float64{60},
		DVFS:             &dvfs.Config{Governor: "ondemand", TransitionLatencyMS: 40},
	})
	cat := catalog()
	m.SpawnN(workload.WithWork(cat.Bitcnts(), 1500), 3)
	m.SpawnN(cat.Sshd(), 3)
	m.SpawnN(cat.Bash(), 3)
	r := rand.New(rand.NewSource(11))
	var prev int64
	found, needOccupied := 0, 0
	for chunk := 0; chunk < 400; chunk++ {
		m.Run(1 + r.Int63n(60))
		for _, q := range deadlineQueries(r, m.nowMS, prev) {
			want, live := sched.NoDeadline, sched.NoDeadline
			for c, rq := range m.Sched.RQs {
				if rq.Current != nil {
					want = min(want, m.wheel.NextGov(q, c))
				}
				if !m.parked[c] {
					live = min(live, m.wheel.NextGov(q, c))
				}
			}
			if got := m.firstGovDeadline(q); got != want {
				t.Fatalf("chunk %d (now %d): firstGovDeadline(%d) = %d, want %d", chunk, m.nowMS, q, got, want)
			}
			if want != sched.NoDeadline {
				found++
			}
			if live != want {
				needOccupied++
			}
			prev = q
		}
	}
	if found == 0 || needOccupied == 0 {
		t.Fatalf("%d queries found a governor deadline, %d turned on the occupancy test; want both > 0", found, needOccupied)
	}
	t.Logf("%d of %d queries found a governor deadline; the occupancy test decided %d", found, 4*400, needOccupied)
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
