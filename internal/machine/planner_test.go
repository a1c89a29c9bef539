package machine

import (
	"math"
	"math/rand"
	"testing"

	"energysched/internal/profile"
	"energysched/internal/sched"
	"energysched/internal/topology"
	"energysched/internal/trace"
)

// The hot-check horizon may skip a check only if it provably finds the
// core below its trigger. Brute force: step a core's per-CPU metrics
// one millisecond at a time (the lockstep engine's partition) and also
// fold each prefix as one quantum (the async engine's); whenever either
// sum reaches the trigger within k ms, metricMayCross must say the
// check at k could act. Triggers are drawn at random and exactly at,
// one ulp around, and 1e-12 around the stepped sums.
func TestHotSumMayReachBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const horizon = 120
	var reached, skipped int
	for trial := 0; trial < 300; trial++ {
		threads := 1 + r.Intn(2)
		weight := math.Pow(10, -4+3*r.Float64())
		stdMS := []float64{1, 10, 100}[r.Intn(3)]
		budget := 20 + 80*r.Float64()
		share := budget / float64(threads)
		seeds := make([]float64, threads)
		feeds := make([]float64, threads)
		for i := range seeds {
			seeds[i] = share * (0.2 + 1.3*r.Float64())
			feeds[i] = share * (0.2 + 1.3*r.Float64())
		}
		newCore := func() []*profile.CPUPower {
			core := make([]*profile.CPUPower, threads)
			for i := range core {
				core[i] = profile.NewCPUPower(share, weight, stdMS, seeds[i])
			}
			return core
		}
		sum := func(core []*profile.CPUPower) float64 {
			s := 0.0
			for _, p := range core {
				s += p.ThermalPower()
			}
			return s
		}
		core := newCore()
		s0, x := sum(core), 0.0
		for _, f := range feeds {
			x += f
		}
		retain := core[0].RetentionPerMS()
		stepped := make([]float64, horizon+1)
		folded := make([]float64, horizon+1)
		for j := 1; j <= horizon; j++ {
			for i, p := range core {
				p.AddEnergy(feeds[i]/1000, 1)
			}
			stepped[j] = sum(core)
			quantum := newCore()
			for i, p := range quantum {
				p.AddEnergy(feeds[i]*float64(j)/1000, float64(j))
			}
			folded[j] = sum(quantum)
		}

		at := stepped[1+r.Intn(horizon)]
		for _, trigger := range []float64{
			budget - 1,
			s0 + (x-s0)*r.Float64(),
			at, math.Nextafter(at, 0), math.Nextafter(at, math.Inf(1)),
			at * (1 - 1e-12), at * (1 + 1e-12),
		} {
			hit := false
			for k := 1; k <= horizon; k++ {
				hit = hit || stepped[k] >= trigger || folded[k] >= trigger
				may := metricMayCross(s0, x, retain, trigger, true, int64(k))
				if hit && !may {
					t.Fatalf("trial %d: s0=%v x=%v retain=%v trigger=%v: sum reaches the trigger by %d ms, but the check there was judged a no-op",
						trial, s0, x, retain, trigger, k)
				}
				if hit {
					reached++
				} else if !may {
					skipped++
				}
			}
		}
	}
	if reached == 0 || skipped == 0 {
		t.Fatalf("vacuous draw: %d reaching and %d skippable checks", reached, skipped)
	}
}

// The governor horizon may skip an evaluation that would act on one
// side of the down threshold only if the CPU's metric provably stays on
// the other side. Brute force as for the hot trigger, on one CPU's
// metric rising and falling toward its feed, with the acting side
// above (rising: at or above the threshold) or below (falling) it:
// whenever the per-ms or the folded metric is on the acting side by
// k ms, metricMayCross must say the evaluation at k could act.
// Thresholds are drawn at random and exactly at, one ulp around, and
// 1e-12 around the stepped values.
func TestMetricMayCrossBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	const horizon = 120
	var reached, skipped int
	for trial := 0; trial < 400; trial++ {
		weight := math.Pow(10, -4+3*r.Float64())
		stdMS := []float64{1, 10, 100}[r.Intn(3)]
		budget := 20 + 80*r.Float64()
		lo := budget * (0.2 + 0.6*r.Float64())
		hi := lo + budget*(0.01+0.7*r.Float64())
		seed, feed := lo, hi // a rising metric
		if trial%2 == 1 {
			seed, feed = hi, lo
		}
		p := profile.NewCPUPower(budget, weight, stdMS, seed)
		s0, retain := p.ThermalPower(), p.RetentionPerMS()
		stepped := make([]float64, horizon+1)
		folded := make([]float64, horizon+1)
		for j := 1; j <= horizon; j++ {
			p.AddEnergy(feed/1000, 1)
			stepped[j] = p.ThermalPower()
			q := profile.NewCPUPower(budget, weight, stdMS, seed)
			q.AddEnergy(feed*float64(j)/1000, float64(j))
			folded[j] = q.ThermalPower()
		}

		at := stepped[1+r.Intn(horizon)]
		for _, threshold := range []float64{
			s0 + (feed-s0)*r.Float64(),
			at, math.Nextafter(at, 0), math.Nextafter(at, math.Inf(1)),
			at * (1 - 1e-12), at * (1 + 1e-12),
		} {
			for _, rising := range []bool{true, false} {
				acts := func(v float64) bool { return (v >= threshold) == rising }
				hit := false
				for k := 1; k <= horizon; k++ {
					hit = hit || acts(stepped[k]) || acts(folded[k])
					may := metricMayCross(s0, feed, retain, threshold, rising, int64(k))
					if hit && !may {
						t.Fatalf("trial %d: s0=%v x=%v retain=%v threshold=%v rising=%v: metric on the acting side by %d ms, but the evaluation there was judged a no-op",
							trial, s0, feed, retain, threshold, rising, k)
					}
					if hit {
						reached++
					} else if !may {
						skipped++
					}
				}
			}
		}
	}
	if reached == 0 || skipped == 0 {
		t.Fatalf("vacuous draw: %d acting and %d skippable evaluations", reached, skipped)
	}
}

// A saturated SMT machine heats from cold through its hot trigger
// mid-run. Before the crossing every hot check is a no-op, and the
// planner steps past them; from the crossing on, checks act and hot
// migrations swap tasks between cores. The skipped checks must not
// change a single trace byte against the lockstep engine, which runs
// every check.
func TestHotHorizonSkipsNoOpChecks(t *testing.T) {
	build := hotSwapMachine
	const runMS = 20_000
	lock := build(EngineLockstep)
	lock.Run(runMS)
	lockCSV := traceCSV(t, lock.Cfg.Trace)
	firstHot := int64(-1)
	for _, ev := range lock.Cfg.Trace.Events() {
		if ev.Kind == trace.Migrate && ev.Detail == sched.MigrateHot.String() {
			firstHot = ev.TimeMS
			break
		}
	}
	if firstHot < 1_000 {
		t.Fatalf("first hot migration at %d ms; want the machine to start below its trigger", firstHot)
	}
	got := build(EngineAsync)
	got.Run(runMS)
	assertEquivalent(t, lock, got)
	if gotCSV := traceCSV(t, got.Cfg.Trace); gotCSV != lockCSV {
		t.Errorf("trace differs from lockstep: %s", firstTraceDiff(lockCSV, gotCSV))
	}
	if n := got.MigrationCountByReason(sched.MigrateHot); n == 0 {
		t.Error("no hot migration")
	}
	// Every CPU runs one task throughout, so every grid instant is
	// an armed hot check; firing all of them would equal the grid.
	grid := 0
	for ms := int64(0); ms < runMS; ms++ {
		grid += len(got.wheel.HotDueCPUs(ms))
	}
	if _, _, hot, _ := got.DeadlineFires(); hot >= int64(grid) {
		t.Errorf("%d hot checks fired of %d on the grid; none skipped", hot, grid)
	}
}

// hotSwapMachine builds a saturated SMT machine, traced, that heats
// from cold through its hot trigger. Placement that ignores energy
// leaves some cores with two bitcnts, and a 4 W destination gap lets
// their hot checks swap one away.
func hotSwapMachine(e Engine) *Machine {
	pol := sched.DefaultConfig()
	pol.EnergyAwarePlacement = false
	pol.HotDestGapW = 4
	m := MustNew(Config{
		Engine: e, Layout: topology.XSeries445(),
		Sched: pol, Seed: 3,
		PackageMaxPowerW: []float64{50},
		Trace:            trace.New(0),
	})
	cat := catalog()
	m.SpawnN(cat.Bitcnts(), 10)
	m.SpawnN(cat.Memrw(), 6)
	return m
}

// Quantum attribution only observes: attaching it changes no trace
// byte, its counts add up to the quanta stepped, and it sees the hot
// checks that ended quanta because a cool-enough core existed. On the
// lockstep engine every quantum is one tick at its limit.
func TestQuantumStatsObserveOnly(t *testing.T) {
	const runMS = 20_000
	plain := hotSwapMachine(EngineAsync)
	plain.Run(runMS)
	m := hotSwapMachine(EngineAsync)
	var qs QuantumStats
	m.SetQuantumStats(&qs)
	m.Run(runMS)
	if got, want := traceCSV(t, m.Cfg.Trace), traceCSV(t, plain.Cfg.Trace); got != want {
		t.Fatalf("attribution changed the trace: %s", firstTraceDiff(want, got))
	}
	var byHorizon, byLength int64
	for _, n := range qs.ByHorizon {
		byHorizon += n
	}
	for _, n := range qs.Lengths {
		byLength += n
	}
	if qs.SimMS != runMS || byHorizon != qs.Quanta || byLength != qs.Quanta {
		t.Errorf("%d quanta over %d ms; %d by horizon, %d by length", qs.Quanta, qs.SimMS, byHorizon, byLength)
	}
	if qs.ByHorizon[HorizonHotDest] == 0 || qs.Lengths[0] == qs.Quanta {
		t.Errorf("want hot checks with a cool core to end some quanta, and quanta past 1 ms: %+v", qs)
	}
	t.Logf("%d quanta, %.2f ms each; %d ended by a hot check that could act", qs.Quanta, qs.MeanMS(), qs.ByHorizon[HorizonHotDest])

	lock := hotSwapMachine(EngineLockstep)
	lock.SetQuantumStats(&qs)
	lock.ResetStats()
	lock.Run(1000)
	if qs.Quanta != 1000 || qs.ByHorizon[HorizonLimit] != 1000 {
		t.Errorf("lockstep: %d quanta, %d at their limit; want 1000 one-tick quanta", qs.Quanta, qs.ByHorizon[HorizonLimit])
	}
}

// Phase 8 reuses the quantum's destination floor for the checks due on
// the quantum's last tick. The floor bounds the sums only within the
// quantum that built it, decayed to the check's tick, so any other
// floor must leave the check to run.
func TestHotDestShutNeedsThisPlansFloor(t *testing.T) {
	m := hotSwapMachine(EngineAsync)
	m.Run(2_000)
	m.resetPhaseMarkers()
	high := hotDestFloor{start: m.qStartMS, ok: true, q: 1, lo: 1e6, lo2: 1e6, loCore: -1}
	m.destFloor = high
	if !m.hotDestShut(0, 4) {
		t.Fatal("a floor far above every core, from this quantum's plan, must shut the check")
	}
	earlier, decayed, missing := high, high, high
	earlier.start--
	decayed.q = 1e-3
	missing.ok = false
	for name, f := range map[string]hotDestFloor{"earlier quantum": earlier, "decayed to the check's tick": decayed, "no floor": missing} {
		m.destFloor = f
		if m.hotDestShut(0, 4) {
			t.Errorf("%s: the check was shut", name)
		}
	}
}

// The destination side may skip a hot check only if no other core can
// be HotDestGapW cooler than the source at any tick of the quantum.
// Brute force: random cores whose CPUs run (arbitrary non-negative
// per-ms samples), idle, or sit parked behind a random settle gap, and
// a source core whose running CPUs keep a constant feed up to a rate
// crossing, with a mixed sample in the crossing millisecond. Every
// core is stepped one millisecond at a time (the lockstep engine's
// partition) and each prefix is also folded as one update (the async
// engine's). At every tick k up to the first crossing, q^k times a
// core's hotFloorTermW sum must stay below its sum, whatever its
// non-negative feeds, and hotSourceCeilW above the source's; whenever
// hotDestRuledOut holds at k every other core must fail HotCheck's gap
// test there. Past the crossing, the ceiling restarted from the sum
// after the crossing tick, as a window's re-check does, must hold up to
// the next CPU's crossing.
func TestHotDestFloorBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	// Per-ms stepping drifts from the closed forms by up to about
	// ulp/(1 − q), near 1e-12 relative for the slowest metrics here; the
	// bounds must hold to within a tenth of the planner's slack.
	const tol = crossSlackRel / 10
	type cpuRun struct {
		start   float64
		stepped []float64 // value after k ms, k = 0..K
		folded  []float64
	}
	var ruled, open, parkedHot, restarted int
	for trial := 0; trial < 400; trial++ {
		weight := math.Pow(10, -4+3*r.Float64())
		stdMS := []float64{1, 10, 100}[r.Intn(3)]
		share := 20 + 40*r.Float64()
		idleW := 2 + 10*r.Float64()
		tracker := func(v float64) *profile.CPUPower { return profile.NewCPUPower(share, weight, stdMS, v) }
		q := tracker(0).RetentionPerMS()
		threads := 1 + r.Intn(2)
		horizon := int64(1 + r.Intn(80))

		// run steps a metric from v through pre idle milliseconds (a
		// parked CPU's settle gap) and then the samples sample(1..K):
		// one update per ms, and one fold per prefix.
		run := func(v float64, pre int64, sample func(j int64) float64, K int64) cpuRun {
			cr := cpuRun{start: v, stepped: make([]float64, K+1), folded: make([]float64, K+1)}
			step := tracker(v)
			for j := int64(1); j <= pre; j++ {
				step.AddEnergy(idleW/1000, 1)
			}
			sum := 0.0
			for j := int64(0); j <= K; j++ {
				if j > 0 {
					step.AddEnergy(sample(j)/1000, 1)
				}
				cr.stepped[j] = step.ThermalPower()
				if j > 0 {
					sum += sample(j)
				}
				fold := tracker(v)
				fold.AddEnergy((sum+idleW*float64(pre))/1000, float64(j+pre))
				cr.folded[j] = fold.ThermalPower()
			}
			return cr
		}
		idle := func(int64) float64 { return idleW }
		drawParked := func() (tp float64, gap int64) {
			tp = share * 2 * r.Float64()
			if r.Intn(2) == 0 {
				tp = idleW * r.Float64()
			}
			return tp, r.Int63n(int64(math.Min(3/(1-q), 20_000)) + 1)
		}

		// The source core: CPU 0 runs; a sibling runs or is parked.
		K := horizon
		type srcCPU struct {
			tp, old, new, cross float64
			parked              bool
			gap                 int64
		}
		src := make([]srcCPU, threads)
		for i := range src {
			s := &src[i]
			if i > 0 && r.Intn(2) == 0 {
				s.parked = true
				s.tp, s.gap = drawParked()
				continue
			}
			s.tp = share * 1.5 * r.Float64()
			s.old = share * 1.5 * r.Float64()
			s.new = share * 1.5 * r.Float64()
			speed := 0.3 + r.Float64()
			rh := (0.01 + 2*float64(horizon)*r.Float64()) * speed
			s.cross = rh / speed
			if n := rateHorizonMS(rh, speed); n < K {
				K = n
			}
		}
		if K < 1 {
			continue // a 1 ms quantum: the check fires, nothing is skipped
		}
		qK := math.Pow(q, float64(K))
		s0, x := 0.0, 0.0
		srcStep, srcFold := make([]float64, horizon+1), make([]float64, horizon+1)
		runs := make([]cpuRun, len(src))
		for i, s := range src {
			cr := &runs[i]
			if s.parked {
				sd, xd := hotSourceTermsW(s.tp, idleW, idleW, true)
				s0, x = s0+sd, x+xd
				*cr = run(s.tp, s.gap, idle, horizon)
			} else {
				sd, xd := hotSourceTermsW(s.tp, s.old, idleW, false)
				s0, x = s0+sd, x+xd
				*cr = run(s.tp, 0, func(j int64) float64 {
					switch lo := math.Floor(s.cross); {
					case float64(j) <= lo:
						return s.old
					case float64(j-1) < s.cross:
						f := s.cross - lo
						return f*s.old + (1-f)*s.new
					}
					return s.new
				}, horizon)
			}
			for k := range srcStep {
				srcStep[k] += cr.stepped[k]
				srcFold[k] += cr.folded[k]
			}
		}
		// Past the first crossing a window re-checks (recheckFeed): the
		// sum restarts from its value after the crossing tick along the
		// feeds then in force, until the next CPU's crossing.
		if R := K + 1; R < horizon {
			s1, x1, next := 0.0, 0.0, horizon
			for i, s := range src {
				switch {
				case s.parked:
					sd, xd := hotSourceTermsW(s.tp, idleW, idleW, true)
					s1, x1 = s1+sd, x1+xd
					continue
				case s.cross < float64(R):
					x1 += s.new
				default:
					x1 += s.old
					next = min(next, int64(math.Floor(s.cross)))
				}
				s1 += runs[i].stepped[R]
			}
			for k := R + 1; k <= next; k++ {
				restarted++
				hi := hotSourceCeilW(s1, x1, math.Pow(q, float64(k-R)))
				if v := srcStep[k]; v > hi+tol*math.Abs(hi) {
					t.Fatalf("trial %d: source sum %v after %d ms, past the crossing at %d, exceeds its ceiling %v", trial, v, k, R, hi)
				}
			}
		}
		hi := hotSourceCeilW(s0, x, qK)
		for k := int64(1); k <= K; k++ {
			hk := hotSourceCeilW(s0, x, math.Pow(q, float64(k)))
			if v := math.Max(srcStep[k], srcFold[k]); v > hk+tol*math.Abs(hk) {
				t.Fatalf("trial %d: source sum %v after %d of %d ms exceeds its ceiling %v", trial, v, k, K, hk)
			}
		}

		// The other cores, and the smallest floor among them.
		nCores := 1 + r.Intn(4)
		destStep := make([][]float64, nCores)
		destFold := make([][]float64, nCores)
		minFloor := math.Inf(1)
		for c := range destStep {
			destStep[c], destFold[c] = make([]float64, K+1), make([]float64, K+1)
			floor := 0.0
			for i := 0; i < threads; i++ {
				var cr cpuRun
				switch r.Intn(3) {
				case 0: // running: any non-negative samples
					samples := make([]float64, K+1)
					for j := range samples {
						samples[j] = share * 1.5 * r.Float64()
						if r.Intn(8) == 0 {
							samples[j] = 0
						}
					}
					cr = run(share*1.5*r.Float64(), 0, func(j int64) float64 { return samples[j] }, K)
					floor += hotFloorTermW(cr.start, idleW, q, 0, false)
				case 1: // idle, metric live
					cr = run(share*1.5*r.Float64(), 0, idle, K)
					floor += hotFloorTermW(cr.start, idleW, q, 0, false)
				default: // parked, metric deferred over gap ms
					tp, gap := drawParked()
					if tp > idleW {
						parkedHot++
					}
					cr = run(tp, gap, idle, K)
					floor += hotFloorTermW(tp, idleW, q, gap, true)
				}
				for k := range destStep[c] {
					destStep[c][k] += cr.stepped[k]
					destFold[c][k] += cr.folded[k]
				}
			}
			for k := int64(1); k <= K; k++ {
				fk := math.Pow(q, float64(k)) * floor
				if v := math.Min(destStep[c][k], destFold[c][k]); fk > v+tol*math.Abs(v) {
					t.Fatalf("trial %d: core %d sum %v after %d of %d ms is below its floor %v", trial, c, v, k, K, fk)
				}
			}
			minFloor = math.Min(minFloor, floor)
		}

		// HotCheck's gap test at every tick, at gaps around the bounds'
		// margin at the last one.
		margin := hi - qK*minFloor
		for _, gap := range []float64{margin - 1, margin - 1e-6, margin, margin + 1e-6, margin + 1, margin + 10*r.Float64() - 5} {
			for k := int64(1); k <= K; k++ {
				qk := math.Pow(q, float64(k))
				if !hotDestRuledOut(qk*minFloor, hotSourceCeilW(s0, x, qk), gap) {
					open++
					continue
				}
				ruled++
				for c := range destStep {
					if destStep[c][k] <= srcStep[k]-gap || destFold[c][k] <= srcFold[k]-gap {
						t.Fatalf("trial %d: gap %v ruled out at %d ms, but core %d is cool enough", trial, gap, k, c)
					}
				}
			}
		}
	}
	t.Logf("%d gaps ruled out, %d open, %d parked CPUs above idle, %d ticks past a crossing", ruled, open, parkedHot, restarted)
	if ruled == 0 || open == 0 || parkedHot == 0 || restarted == 0 {
		t.Fatalf("vacuous draw: %d gaps ruled out, %d open, %d parked CPUs above idle, %d ticks past a crossing", ruled, open, parkedHot, restarted)
	}
}

// The window-end pre-test (shutThrough) may rule a hot check out only
// if the per-tick test hotCheckAt falls back to — the floor q^K times
// the other cores' sum against the source ceiling at k = t − ref —
// rules it out at every tick from the quantum's start through the end
// tick. Brute force over retentions, clocks (the quantum's start, or a
// window's later piece), sums and gaps drawn around the pre-test's own
// margin; the memoized factors must also equal fresh powers bit for
// bit.
func TestHotDestPreTestBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var ruled, open, endCeil int
	for trial := 0; trial < 3000; trial++ {
		weight := math.Pow(10, -4+3*r.Float64())
		stdMS := []float64{1, 10, 100}[r.Intn(3)]
		q := profile.NewCPUPower(40, weight, stdMS, 0).RetentionPerMS()
		start := int64(r.Intn(1000))
		end := start + int64(r.Intn(200))
		ref := start - 1
		if r.Intn(2) == 0 {
			ref += int64(r.Intn(int(end-start) + 1))
		}
		s, x, lo := 80*r.Float64(), 80*r.Float64(), 100*r.Float64()
		if r.Intn(20) == 0 {
			lo = math.Inf(1) // no other core
		}
		f := hotDestFloor{start: start, ok: true, q: q, lo: lo, lo2: lo, loCore: 0, end: start - 1, qk: 1}
		cs := coreSum{ref: ref, s: s, x: x, q: q}

		qEnd := math.Pow(q, float64(end-start+1))
		hi := max(s, x)
		if x > s && ref == start-1 {
			hi = hotSourceCeilW(s, x, qEnd)
			endCeil++
		}
		margin := hi - qEnd*lo
		gap := margin + []float64{-1, -1e-6, -1e-9, 0, 1e-9, 1e-7, 1e-6, 1, 10*r.Float64() - 5}[r.Intn(9)]
		if math.IsInf(lo, 1) {
			gap = 12
		}
		if !f.shutThrough(1, end, cs, gap) {
			open++
			continue
		}
		ruled++
		if f.qEnd != qEnd {
			t.Fatalf("trial %d: end factor %v, want math.Pow's %v", trial, f.qEnd, qEnd)
		}
		for tick := start; tick <= end; tick++ {
			K := tick - start + 1
			lk := math.Pow(q, float64(K)) * lo
			if got := f.floorAt(1, K); got != lk && !(math.IsNaN(got) && math.IsNaN(lk)) {
				t.Fatalf("trial %d: floor %v at tick %d, want %v", trial, got, tick, lk)
			}
			hk := hotSourceCeilW(s, x, math.Pow(q, float64(tick-ref)))
			if !hotDestRuledOut(lk, hk, gap) {
				t.Fatalf("trial %d: pre-test ruled the check out through tick %d, but the per-tick test leaves it open at %d (q %v, s %v, x %v, floor sum %v, gap %v, ref %d)",
					trial, end, tick, q, s, x, lo, gap, ref)
			}
		}
	}
	t.Logf("%d checks ruled out, %d open, %d at the end tick's ceiling", ruled, open, endCeil)
	if ruled == 0 || open == 0 || endCeil == 0 {
		t.Fatalf("vacuous draw: %d ruled out, %d open, %d at the end tick's ceiling", ruled, open, endCeil)
	}
}

// A window's re-check skips the hot walk when a CPU's samples do not
// rise above the feed they replace (feedRose, recheckFeed). Brute
// force on one core's check: whenever hotCheckAt rules the check out at
// every tick through the window's end from the core's sum at one clock
// under the old feed, the sum is stepped per ms along that feed to a
// later tick R, where one CPU of the core changes its feed, either
// exactly at the boundary or through a crossing tick with a sample of
// its own. If feedRose says the samples did not rise, hotCheckAt must
// still rule the check out at every tick from R through the window's
// end. New feeds and samples are drawn on both sides of the old feed,
// and some rises open a check, so a feedRose that let a rise through
// fails here.
func TestHotRecheckFallingFeedBruteForce(t *testing.T) {
	m, _ := windowMachine(t, EngineAsync)
	trigger, ok := m.Sched.HotTriggerW(0)
	if !ok {
		t.Fatal("CPU 0 has no hot trigger")
	}
	gap := m.Sched.Cfg.HotDestGapW
	r := rand.New(rand.NewSource(4))
	var ruled, held, roseOpen, crossing int
	for trial := 0; trial < 4000; trial++ {
		weight := math.Pow(10, -4+3*r.Float64())
		stdMS := []float64{1, 10, 100}[r.Intn(3)]
		q := profile.NewCPUPower(40, weight, stdMS, 0).RetentionPerMS()
		start := m.qStartMS
		m.winEnd = start + 2 + int64(r.Intn(200))
		ref0 := start - 1
		if r.Intn(2) == 0 {
			ref0 += int64(r.Intn(int(m.winEnd-start) / 2))
		}
		// The core sum and feed at ref0, the changing CPU's share of
		// the feed, and a floor on every other core's sum around the
		// source's reach less the gap.
		s0 := trigger * (0.4 + 0.8*r.Float64())
		xOld := trigger * (0.7 + 0.5*r.Float64())
		fOld := xOld * (0.2 + 0.8*r.Float64())
		lo := (math.Max(s0, xOld) - gap) * (0.9 + 0.3*r.Float64())
		if r.Intn(20) == 0 {
			lo = math.Inf(1)
		}
		m.destFloor = hotDestFloor{start: start, ok: true, q: q, lo: lo, lo2: lo, loCore: -1, qk: 1, end: start - 1}
		cs := coreSum{ref: ref0, s: s0, x: xOld, q: q}
		open := false
		for tk := ref0 + 1; tk < m.winEnd && !open; tk++ {
			_, open = m.hotCheckAt(0, tk, cs)
		}
		if open {
			continue // the window would end at the check
		}
		ruled++

		// The actual sum: stepped per ms along the old feed to R, then
		// the change.
		R := ref0 + 1 + int64(r.Intn(int(m.winEnd-ref0-1)))
		tr := profile.NewCPUPower(40, weight, stdMS, s0)
		for tk := ref0 + 1; tk < R; tk++ {
			tr.AddEnergy(xOld/1000, 1)
		}
		fNew := fOld * 1.6 * r.Float64()
		first, ref1 := fNew, R-1
		if r.Intn(2) == 0 {
			// A crossing tick R: its sample mixes the feeds around it,
			// or, with two epochs ending in it, lies anywhere near.
			crossing++
			f := r.Float64()
			first = f*fOld + (1-f)*fNew
			if r.Intn(4) == 0 {
				first = fOld * 1.6 * r.Float64()
			}
			tr.AddEnergy((xOld-fOld+first)/1000, 1)
			ref1 = R
		}
		cs1 := coreSum{ref: ref1, s: tr.ThermalPower(), x: xOld - fOld + fNew, q: q}
		rose := feedRose(fOld, first, fNew)
		for tk := R; tk < m.winEnd; tk++ {
			if _, open := m.hotCheckAt(0, tk, cs1); open {
				if rose {
					roseOpen++
					break
				}
				t.Fatalf("trial %d: check ruled out through %d under feed %v (sum %v after %d), open at %d after the feed fell to %v (first sample %v, sum %v after %d); floor %v, gap %v, q %v",
					trial, m.winEnd, xOld, s0, ref0, tk, cs1.x, first, cs1.s, ref1, lo, gap, q)
			}
		}
		if !rose {
			held++
		}
	}
	t.Logf("%d checks ruled out, %d stayed so after a fall, %d crossing ticks, %d rises opened a check", ruled, held, crossing, roseOpen)
	if held == 0 || roseOpen == 0 || crossing == 0 {
		t.Fatalf("vacuous draw: %d held after a fall, %d rises opened a check, %d crossing ticks", held, roseOpen, crossing)
	}
}
