package sched

import "testing"

func TestUtilTrackerObserve(t *testing.T) {
	var u UtilTracker
	u.AddBusy(15)
	if got := u.Observe(20); got != 0.75 {
		t.Fatalf("util = %v, want 0.75", got)
	}
	// Observe resets the window.
	if got := u.Observe(40); got != 0 {
		t.Fatalf("empty window util = %v, want 0", got)
	}
	// Busy time is clamped to the window (halted occupancy can
	// accumulate while wall time stands still within a quantum).
	u.AddBusy(50)
	if got := u.Observe(60); got != 1 {
		t.Fatalf("over-full window util = %v, want clamp to 1", got)
	}
}

func TestUtilTrackerIdleExit(t *testing.T) {
	// Pure-idle stale window: a CPU idle since its last observation
	// receives work at t=10000. IdleExit must restart the window so the
	// next observation measures the fresh occupancy, not the idle span.
	var u UtilTracker
	u.Observe(0)
	u.IdleExit(10_000)
	u.AddBusy(20)
	if got := u.Observe(10_020); got != 1 {
		t.Fatalf("post-idle-exit util = %v, want 1 (stale window must reset)", got)
	}

	// Window already holding busy time: an interactive task's burst
	// ended, the CPU idled, and a new burst arrives. IdleExit must NOT
	// reset — the idle gap is the ondemand governor's down signal.
	u.AddBusy(25)
	u.IdleExit(10_100)
	if got := u.Window(10_100); got != 80 {
		t.Fatalf("busy window width = %v, want 80 (no reset)", got)
	}
	if got := u.Observe(10_120); got != 0.25 {
		t.Fatalf("interactive util = %v, want 25/100 = 0.25", got)
	}
}

func TestUtilTrackerReplayObserve(t *testing.T) {
	// An Observe at t inside an occupied stretch, then one AddBusy per
	// millisecond through now, must equal AddBusy over the stretch plus
	// ReplayObserve(t, now).
	for _, since := range []int64{0, 95, 100} {
		var stepped, replayed UtilTracker
		stepped.Observe(since)
		replayed.Observe(since)
		for ms := int64(100); ms <= 130; ms++ {
			stepped.AddBusy(1)
			if ms == 112 && stepped.Window(ms) > 0 {
				stepped.Observe(ms)
			}
		}
		replayed.AddBusy(31)
		replayed.ReplayObserve(112, 130)
		if stepped.State() != replayed.State() {
			t.Errorf("since %d: replayed %+v, stepped %+v", since, replayed.State(), stepped.State())
		}
	}
	// A zero-width window at the instant is never observed.
	var u UtilTracker
	u.Observe(50)
	u.AddBusy(5)
	u.ReplayObserve(50, 55)
	if got := u.State(); got != (UtilState{BusyMS: 5, SinceMS: 50}) {
		t.Errorf("zero-width replay changed the window: %+v", got)
	}
}
