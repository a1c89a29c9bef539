package experiments

import (
	"strings"
	"testing"
)

// The enforcement comparison must show both knobs actually enforcing —
// the throttle by halting, the governors by downclocking — with the
// thermal governor finishing the fixed work faster (slow-but-always
// beats duty-cycle halts under the f·V² law) and every policy holding
// the temperature near the budget's steady point.
func TestDVFSvsThrottleShape(t *testing.T) {
	cfg := DefaultDVFSComparisonConfig()
	cfg.WorkMS = 20_000 // shortened for the test suite
	res := RunConfig{}.DVFSvsThrottle(cfg)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	byPolicy := map[string]DVFSRow{}
	for _, r := range res.Rows {
		byPolicy[r.Policy] = r
		if r.MakespanMS <= int64(cfg.WorkMS) {
			t.Errorf("%s finished faster than the work itself: %d ms", r.Policy, r.MakespanMS)
		}
		if r.EnergyJ <= 0 || r.AvgPowerW <= 0 {
			t.Errorf("%s has no energy accounting", r.Policy)
		}
	}

	thr, ok := byPolicy["hlt-throttle"]
	if !ok {
		t.Fatal("missing hlt-throttle row")
	}
	if thr.HaltedFrac == 0 || thr.DownclockedFrac != 0 {
		t.Errorf("throttle row enforcement wrong: halted %.2f downclocked %.2f",
			thr.HaltedFrac, thr.DownclockedFrac)
	}
	gov, ok := byPolicy["dvfs-thermal"]
	if !ok {
		t.Fatal("missing dvfs-thermal row")
	}
	if gov.DownclockedFrac == 0 || gov.HaltedFrac != 0 {
		t.Errorf("thermal-governor row enforcement wrong: halted %.2f downclocked %.2f",
			gov.HaltedFrac, gov.DownclockedFrac)
	}
	if gov.PStateSwitches == 0 {
		t.Error("thermal governor never switched a P-state")
	}
	// The headline: downclocking completes the same work sooner than
	// halting at the same budget.
	if gov.MakespanMS >= thr.MakespanMS {
		t.Errorf("thermal governor makespan %d ms not below throttle %d ms",
			gov.MakespanMS, thr.MakespanMS)
	}
	// Peak temperatures stay in the neighbourhood of the limit implied
	// by the budget (steady temp of 40 W at dvfsPropsR is 33 °C) — neither
	// knob lets the machine run away thermally.
	limit := UniformProps(1, dvfsPropsR)[0].SteadyTemp(cfg.BudgetW)
	for _, r := range res.Rows {
		if r.PeakTempC > limit+2 {
			t.Errorf("%s peak temp %.1f °C far above the %.1f °C budget point", r.Policy, r.PeakTempC, limit)
		}
	}

	out := FormatDVFSComparison(res)
	for _, want := range []string{"hlt-throttle", "dvfs-thermal", "dvfs-ondemand", "makespan", "peak"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
}
