package workload

import (
	"math"
	"testing"

	"energysched/internal/counters"
	"energysched/internal/rng"
)

// The async engine's correctness hinges on Tick being
// partition-invariant: simulating an interval in one call must produce
// the same cumulative counts, the same task state, and the same
// random-number consumption as simulating it in any sequence of smaller
// calls. These tests pin that contract.

// runPartitioned executes the task for totalMS at speed, splitting the
// interval into chunks drawn from the pattern, and returns the summed
// results plus the per-call statuses. Like the simulation engines, it
// honors the Tick contract: an interval never extends past the wall
// millisecond in which the stop horizon (block point) is reached, so a
// block ends its chunk exactly as it ends a lockstep tick or a planned
// quantum.
func runPartitioned(t *Task, speed, totalMS float64, pattern []float64) (counters.Counts, counters.Frac, []Status) {
	var cnt counters.Counts
	var exact counters.Frac
	var statuses []Status
	left := totalMS
	i := 0
	for left > 1e-9 {
		dt := pattern[i%len(pattern)]
		i++
		if dt > left {
			dt = left
		}
		if sh := t.StopHorizonMS() / speed; !math.IsInf(sh, 1) {
			if cap := math.Ceil(sh); cap >= 1 && cap < dt {
				dt = cap
			}
		}
		res := t.Tick(speed, dt)
		cnt = cnt.Add(res.Counts)
		exact = exact.Add(res.Exact)
		statuses = append(statuses, res.Status)
		left -= dt
	}
	return cnt, exact, statuses
}

func TestTickPartitionInvariance(t *testing.T) {
	c, _ := testCatalog()
	patterns := [][]float64{
		{1},          // lockstep
		{7, 1, 3, 2}, // mixed quanta
		{64},         // large quanta
	}
	for _, prog := range []*Program{c.Bzip2(), c.Openssl(), c.Bash(), c.Grep(), c.Bitcnts()} {
		var ref counters.Counts
		var refExact counters.Frac
		var refWork float64
		var refPhase int
		for pi, pat := range patterns {
			task := NewTask(1, prog, rng.New(77))
			cnt, exact, _ := runPartitioned(task, 0.62, 5000, pat)
			if pi == 0 {
				ref, refExact, refWork, refPhase = cnt, exact, task.DoneWork(), task.Phase()
				continue
			}
			if cnt != ref {
				t.Errorf("%s pattern %v: integer counts diverged: %v vs %v", prog.Name, pat, cnt, ref)
			}
			for ev := range exact {
				if d := math.Abs(exact[ev]-refExact[ev]) / math.Max(1, refExact[ev]); d > 1e-9 {
					t.Errorf("%s pattern %v: exact counts diverged at %v: rel %e", prog.Name, pat, counters.Event(ev), d)
				}
			}
			if task.Phase() != refPhase {
				t.Errorf("%s pattern %v: phase %d vs %d", prog.Name, pat, task.Phase(), refPhase)
			}
			if math.Abs(task.DoneWork()-refWork) > 1e-6 {
				t.Errorf("%s pattern %v: work %v vs %v", prog.Name, pat, task.DoneWork(), refWork)
			}
		}
	}
}

// Integer emission telescopes: the counts of consecutive intervals sum
// exactly to the counts of the union, with no rounding drift.
func TestTickCountsTelescope(t *testing.T) {
	c, _ := testCatalog()
	a := NewTask(1, c.Aluadd(), rng.New(5))
	b := NewTask(1, c.Aluadd(), rng.New(5))
	var sum counters.Counts
	for i := 0; i < 100; i++ {
		sum = sum.Add(a.Tick(1, 1).Counts)
	}
	whole := b.Tick(1, 100).Counts
	if sum != whole {
		t.Fatalf("counts do not telescope: %v vs %v", sum, whole)
	}
}

// Horizons: RateHorizonMS bounds the span of constant EffectiveRates,
// and StopHorizonMS the span of uninterrupted execution.
func TestHorizons(t *testing.T) {
	c, _ := testCatalog()
	task := NewTask(1, c.Bzip2(), rng.New(9))
	for i := 0; i < 200; i++ {
		rates := task.EffectiveRates()
		h := task.RateHorizonMS()
		if h <= 0 {
			task.Tick(1, 1)
			continue
		}
		// Running strictly inside the horizon must not change the rates.
		dt := h * 0.5
		if dt > 10 {
			dt = 10
		}
		if dt <= 0 {
			continue
		}
		task.Tick(1, dt)
		if task.RateHorizonMS() > 0 && task.EffectiveRates() != rates {
			t.Fatalf("rates changed inside the rate horizon at iteration %d", i)
		}
	}

	// A blocking program never blocks strictly before its stop horizon,
	// as long as the interval also stays inside the rate horizon (a
	// phase transition redraws the block point — which is why the
	// engine's planner caps quanta at both horizons).
	bash := NewTask(2, c.Bash(), rng.New(10))
	for i := 0; i < 500; i++ {
		dt := math.Min(bash.StopHorizonMS(), bash.RateHorizonMS()) - 1
		if dt > 1 {
			if res := bash.Tick(1, math.Floor(dt)); res.Status == Blocked {
				t.Fatalf("blocked before the stop horizon at iteration %d", i)
			}
		} else {
			bash.Tick(1, 1)
		}
	}
}

func TestNonBlockingHorizonInfinite(t *testing.T) {
	c, _ := testCatalog()
	task := NewTask(1, c.Bitcnts(), rng.New(3))
	if !math.IsInf(task.StopHorizonMS(), 1) {
		t.Error("endless non-blocking task should have an infinite stop horizon")
	}
	finite := NewTask(2, WithWork(c.Bitcnts(), 500), rng.New(3))
	// The horizon sits a finish-slack below the nominal remaining work
	// so the crossing never lands exactly on a millisecond boundary.
	if h := finite.StopHorizonMS(); h <= 500-2*workFinishSlackMS || h >= 500 {
		t.Errorf("stop horizon = %v, want 500 - finish slack", h)
	}
}
