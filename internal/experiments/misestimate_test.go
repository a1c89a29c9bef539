package experiments

import (
	"strings"
	"testing"
)

// The robustness ablation's headline claims: an under-reporting
// estimator trusted blindly overshoots the budget's steady temperature;
// online recalibration pulls the overshoot and the estimation error
// way down; the conservative fallback keeps the temperature at or
// below the limit (for the scales its clamp can cover) at a makespan
// cost.
func TestMisestimateShape(t *testing.T) {
	cfg := DefaultMisestimateConfig()
	cfg.WorkMS = 20_000 // shortened for the test suite
	cfg.Scales = []float64{1.0, 0.6}
	res := RunConfig{}.Misestimate(cfg)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 (1 calibrated + 4 variants)", len(res.Rows))
	}
	rows := map[string]MisestimateRow{}
	for _, r := range res.Rows {
		key := r.Variant
		rows[key] = r
		if r.DNF {
			t.Errorf("%s (scale %.2f) did not finish", r.Variant, r.Scale)
		}
	}

	cal := rows["(calibrated)"]
	if cal.TempExcessC > 0.5 {
		t.Errorf("calibrated run overshoots by %.2f °C", cal.TempExcessC)
	}
	if cal.EstErrJ != 0 || cal.Recals != 0 || cal.FallbackTicks != 0 {
		t.Errorf("calibrated run has fault-metric residue: err %.1fJ recals %d fb %d",
			cal.EstErrJ, cal.Recals, cal.FallbackTicks)
	}

	blind := rows["trust-blindly"]
	if blind.TempExcessC <= 0.5 {
		t.Errorf("trust-blindly should overshoot clearly, got %.2f °C", blind.TempExcessC)
	}
	if blind.EstErrJ <= 0 {
		t.Error("trust-blindly accumulated no estimation error")
	}

	recal := rows["recal"]
	if recal.Recals == 0 {
		t.Error("recal variant never recalibrated")
	}
	if recal.TempExcessC >= blind.TempExcessC {
		t.Errorf("recal overshoot %.2f °C not below trust-blindly %.2f °C",
			recal.TempExcessC, blind.TempExcessC)
	}
	if recal.EstErrJ >= blind.EstErrJ {
		t.Errorf("recal estimation error %.0fJ not below trust-blindly %.0fJ",
			recal.EstErrJ, blind.EstErrJ)
	}

	fb := rows["fallback"]
	if fb.FallbackTicks == 0 {
		t.Error("fallback variant never engaged")
	}
	if fb.TempExcessC >= blind.TempExcessC {
		t.Errorf("fallback overshoot %.2f °C not below trust-blindly %.2f °C",
			fb.TempExcessC, blind.TempExcessC)
	}
	if fb.MakespanMS <= blind.MakespanMS {
		t.Error("fallback's conservative limits should cost makespan")
	}

	out := FormatMisestimate(res)
	for _, want := range []string{"trust-blindly", "recal+fallback", "excess", "est err"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
}
