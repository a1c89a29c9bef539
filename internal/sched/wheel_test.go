package sched

import "testing"

// The wheel must agree exactly with the lockstep loop's historical
// modulo checks: balance due at (T + 7c) mod balP == 0, hot checks at
// (T + 3c) mod hotP == 0, idle pulls at (T + c) mod 10 == 0.
func TestWheelMatchesModuloSchedule(t *testing.T) {
	cfg := DefaultConfig() // 250 ms balance, 100 ms hot check
	w := NewWheel(cfg, 0, 16)
	for now := int64(0); now < 2000; now++ {
		for c := 0; c < 16; c++ {
			if got, want := w.BalanceDue(now, c), (now+int64(c)*7)%250 == 0; got != want {
				t.Fatalf("BalanceDue(%d, %d) = %v", now, c, got)
			}
			if got, want := w.HotDue(now, c), (now+int64(c)*3)%100 == 0; got != want {
				t.Fatalf("HotDue(%d, %d) = %v", now, c, got)
			}
			if got, want := w.IdlePullDue(now, c), (now+int64(c))%10 == 0; got != want {
				t.Fatalf("IdlePullDue(%d, %d) = %v", now, c, got)
			}
		}
	}
}

// NextX returns the first due instant at or after now, and nothing is
// due strictly between.
func TestWheelNextDeadlines(t *testing.T) {
	cfg := DefaultConfig()
	w := NewWheel(cfg, 0, 16)
	for now := int64(0); now < 1500; now += 13 {
		for c := 0; c < 8; c++ {
			nb := w.NextBalance(now, c)
			if nb < now || !w.BalanceDue(nb, c) {
				t.Fatalf("NextBalance(%d, %d) = %d not due", now, c, nb)
			}
			for ts := now; ts < nb; ts++ {
				if w.BalanceDue(ts, c) {
					t.Fatalf("balance due at %d before NextBalance %d", ts, nb)
				}
			}
			nh := w.NextHot(now, c)
			if nh < now || !w.HotDue(nh, c) {
				t.Fatalf("NextHot(%d, %d) = %d not due", now, c, nh)
			}
			ni := w.NextIdlePull(now, c)
			if ni < now || ni > now+IdlePullPeriodMS || !w.IdlePullDue(ni, c) {
				t.Fatalf("NextIdlePull(%d, %d) = %d", now, c, ni)
			}
		}
	}
}

// Disabled periods yield NoDeadline and never fire.
func TestWheelDisabled(t *testing.T) {
	w := NewWheel(Config{}, 0, 4)
	if w.NextBalance(123, 2) != NoDeadline || w.NextHot(123, 2) != NoDeadline {
		t.Error("disabled periods should report NoDeadline")
	}
	if w.BalanceDue(0, 0) || w.HotDue(0, 0) {
		t.Error("disabled periods should never be due")
	}
}
