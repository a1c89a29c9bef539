package experiments

import (
	"errors"
	"math"
	"strings"
	"testing"

	"energysched/internal/energy"
)

// Shortened configs keep the test suite fast; the benchmarks run the
// full-length versions.

func TestTable1Shape(t *testing.T) {
	rows := Table1(2006, 500)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Program] = r
	}
	// Published: bash 19/2.05, bzip2 88.8/5.45, grep 84.3/1.06,
	// sshd 18.3/1.38, openssl 63.2/2.48. Check the qualitative shape:
	// large maxima for bzip2/grep/openssl, small for bash/sshd, low
	// single-digit averages everywhere.
	for _, name := range []string{"bzip2", "grep", "openssl"} {
		if byName[name].MaxPct < 35 {
			t.Errorf("%s max = %.1f%%, want large (>35%%)", name, byName[name].MaxPct)
		}
	}
	for _, name := range []string{"bash", "sshd"} {
		if byName[name].MaxPct > 35 {
			t.Errorf("%s max = %.1f%%, want small (<35%%)", name, byName[name].MaxPct)
		}
	}
	for _, r := range rows {
		if r.AvgPct < 0.2 || r.AvgPct > 8 {
			t.Errorf("%s avg = %.2f%%, want low single digits", r.Program, r.AvgPct)
		}
		if r.MaxPct < r.AvgPct {
			t.Errorf("%s max < avg", r.Program)
		}
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "bzip2") || !strings.Contains(out, "%") {
		t.Error("FormatTable1 output malformed")
	}
}

func TestTable2MatchesPublishedPowers(t *testing.T) {
	rows, err := Table2(2006, 30000)
	if err != nil {
		t.Fatalf("Table2: %v", err)
	}
	want := map[string]struct{ lo, hi float64 }{
		"bitcnts": {59, 63}, "memrw": {36, 40}, "aluadd": {48, 52}, "pushpop": {45, 49},
	}
	for _, r := range rows {
		if w, ok := want[r.Program]; ok {
			mid := (r.MinWatts + r.MaxWatts) / 2
			if mid < w.lo || mid > w.hi {
				t.Errorf("%s = %.1f W, want in [%v, %v]", r.Program, mid, w.lo, w.hi)
			}
		}
	}
	// openssl varies over a wide band (~42–57 W published).
	var ossl Table2Row
	for _, r := range rows {
		if r.Program == "openssl" {
			ossl = r
		}
	}
	if ossl.MaxWatts-ossl.MinWatts < 8 {
		t.Errorf("openssl range = [%.1f, %.1f], want wide", ossl.MinWatts, ossl.MaxWatts)
	}
	if !strings.Contains(FormatTable2(rows), "bitcnts") {
		t.Error("FormatTable2 output malformed")
	}
}

func shortTable3() Table3Config {
	return Table3Config{Seed: 2006, WarmupMS: 30_000, MeasureMS: 90_000, TaskWorkMS: 12_000, PerProgram: 6}
}

// Table 3 shape: energy balancing lowers the average throttling
// percentage and raises throughput; the well-cooled packages never
// throttle.
func TestTable3Shape(t *testing.T) {
	res, err := RunConfig{}.Table3(shortTable3())
	if err != nil {
		t.Fatalf("Table3: %v", err)
	}
	if res.AvgDisabled <= res.AvgEnabled {
		t.Errorf("balancing did not reduce throttling: %.1f%% → %.1f%%",
			res.AvgDisabled*100, res.AvgEnabled*100)
	}
	if res.AvgDisabled < 0.05 || res.AvgDisabled > 0.40 {
		t.Errorf("disabled average = %.1f%%, want moderate (paper: 15.2%%)", res.AvgDisabled*100)
	}
	if res.ThroughputGain <= 0 {
		t.Errorf("throughput gain = %.1f%%, want positive (paper: +4.7%%)", res.ThroughputGain*100)
	}
	// Only the poorly/medium cooled packages (0, 3, 4 and their
	// siblings 8, 11, 12, plus occasionally 1/5/9/13) may throttle;
	// the well-cooled packages 2, 6, 7 never do.
	for _, row := range res.Rows {
		pkg := int(row.CPU) % 8
		if pkg == 2 || pkg == 6 || pkg == 7 {
			t.Errorf("well-cooled package %d throttled (CPU %d)", pkg, row.CPU)
		}
	}
	if len(res.Rows) < 4 {
		t.Errorf("only %d CPUs throttled; expected the poor packages and siblings", len(res.Rows))
	}
	if !strings.Contains(FormatTable3(res), "average") {
		t.Error("FormatTable3 output malformed")
	}
}

func TestFigure3Relationship(t *testing.T) {
	r := Figure3()
	if r.Power.Len() != r.Temperature.Len() || r.Power.Len() != r.ThermalPower.Len() {
		t.Fatal("series length mismatch")
	}
	// During the high phase, thermal power rises gradually (like
	// temperature), not instantly (like power).
	highStart, highEnd := 10, 70
	tpAtStart := r.ThermalPower.At(highStart + 2)
	tpAtEnd := r.ThermalPower.At(highEnd - 2)
	if tpAtStart > 40 {
		t.Errorf("thermal power jumped immediately: %v", tpAtStart)
	}
	if tpAtEnd < 55 {
		t.Errorf("thermal power did not approach the power level: %v", tpAtEnd)
	}
	// Thermal power and temperature move together: their normalized
	// curves correlate strongly.
	var corrNum, corrT, corrP float64
	tMean, pMean := r.Temperature.Mean(), r.ThermalPower.Mean()
	for i := 0; i < r.Temperature.Len(); i++ {
		dt := r.Temperature.At(i) - tMean
		dp := r.ThermalPower.At(i) - pMean
		corrNum += dt * dp
		corrT += dt * dt
		corrP += dp * dp
	}
	corr := corrNum / math.Sqrt(corrT*corrP)
	if corr < 0.999 {
		t.Errorf("temperature/thermal-power correlation = %v, want ~1", corr)
	}
}

func shortTrace(enabled bool) ThermalTraceConfig {
	return ThermalTraceConfig{Seed: 61, DurationMS: 240_000, PerProgram: 3, EnergyBalancing: enabled}
}

// Figures 6 and 7: without balancing the curves diverge (some CPUs
// above a 50 W limit line); with balancing the band is narrow and stays
// below the line.
func TestFigures6And7(t *testing.T) {
	f6 := RunConfig{}.ThermalTrace(shortTrace(false))
	f7 := RunConfig{}.ThermalTrace(shortTrace(true))
	if len(f6.Series) != 8 || len(f7.Series) != 8 {
		t.Fatal("expected 8 CPU series")
	}
	if f6.SpreadW < 2*f7.SpreadW {
		t.Errorf("balancing did not narrow the band: %.1f W vs %.1f W", f6.SpreadW, f7.SpreadW)
	}
	if f6.MaxW < 50 {
		t.Errorf("unbalanced max = %.1f W, expected CPUs above the 50 W line", f6.MaxW)
	}
	if f7.MaxW > 51.5 {
		t.Errorf("balanced max = %.1f W, expected ≤ ~50 W", f7.MaxW)
	}
	// §6.1: balancing multiplies migrations roughly tenfold but the
	// absolute count stays tiny versus timeslices.
	if f7.Migrations <= f6.Migrations {
		t.Error("balancing should cause more migrations")
	}
	if f7.Migrations > 200 {
		t.Errorf("balanced migrations = %d, want a few dozen", f7.Migrations)
	}
}

func TestMigrationCountsShape(t *testing.T) {
	mc, err := RunConfig{}.MigrationCounts(61, 120_000)
	if err != nil {
		t.Fatal(err)
	}
	if mc.SMTOffEnabled <= mc.SMTOffDisabled {
		t.Errorf("SMT off: %d enabled vs %d disabled", mc.SMTOffEnabled, mc.SMTOffDisabled)
	}
	if mc.SMTOnEnabled <= mc.SMTOnDisabled {
		t.Errorf("SMT on: %d enabled vs %d disabled", mc.SMTOnEnabled, mc.SMTOnDisabled)
	}
	// SMT on (36 tasks) migrates more than SMT off (18 tasks), as in
	// the paper (87 vs 32).
	if mc.SMTOnEnabled <= mc.SMTOffEnabled {
		t.Errorf("SMT on should migrate more: %d vs %d", mc.SMTOnEnabled, mc.SMTOffEnabled)
	}
}

func TestFigure8Shape(t *testing.T) {
	cfg := DefaultFigure8Config()
	cfg.WarmupMS, cfg.MeasureMS = 30_000, 90_000
	points, err := RunConfig{}.Figure8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 10 {
		t.Fatalf("points = %d", len(points))
	}
	first, last := points[0], points[len(points)-1]
	if first.Memrw != 9 || first.Bitcnts != 9 || last.Pushpop != 18 {
		t.Fatal("scenario construction wrong")
	}
	// Heterogeneous mixes gain substantially; the homogeneous mix
	// gains (essentially) nothing.
	maxGain := 0.0
	for _, p := range points {
		if p.GainPct > maxGain {
			maxGain = p.GainPct
		}
	}
	if maxGain < 5 {
		t.Errorf("peak gain = %.1f%%, want >5%% (paper: 12.3%%)", maxGain)
	}
	if math.Abs(last.GainPct) > 2.5 {
		t.Errorf("homogeneous gain = %.1f%%, want ~0", last.GainPct)
	}
	// The first half of the sweep (heterogeneous) must outperform the
	// last quarter (nearly homogeneous) on average.
	hetero := (points[0].GainPct + points[1].GainPct + points[2].GainPct) / 3
	homo := (points[8].GainPct + points[9].GainPct) / 2
	if hetero <= homo {
		t.Errorf("heterogeneous %.1f%% should exceed homogeneous %.1f%%", hetero, homo)
	}
}

func TestFigure9Shape(t *testing.T) {
	r := RunConfig{}.Figure9(7, 120_000)
	if r.CrossNode != 0 {
		t.Errorf("cross-node migrations = %d, want 0", r.CrossNode)
	}
	if r.SiblingHops != 0 {
		t.Errorf("sibling hops = %d, want 0", r.SiblingHops)
	}
	// Roughly one migration per ten seconds.
	if n := len(r.Migrations); n < 8 || n > 20 {
		t.Errorf("migrations in 120 s = %d, want ~12", n)
	}
	if r.ThrottledFrac > 0.02 {
		t.Errorf("throttled %.1f%%, want ~0", r.ThrottledFrac*100)
	}
	// The task visits every package of one node.
	pkgs := map[int]bool{}
	for _, cpu := range r.CPUs {
		pkgs[cpu%8] = true
	}
	if len(pkgs) != 4 {
		t.Errorf("visited %d packages, want 4", len(pkgs))
	}
	if !strings.Contains(FormatFigure9(r), "migrations=") {
		t.Error("FormatFigure9 output malformed")
	}
}

func TestFigure10Shape(t *testing.T) {
	cfg := DefaultFigure10Config()
	cfg.WarmupMS, cfg.MeasureMS = 30_000, 120_000
	points, err := RunConfig{}.Figure10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 8 {
		t.Fatalf("points = %d", len(points))
	}
	// Large gain with 1–2 tasks (paper ~76 %), collapsing to ~0 at 8.
	if points[0].GainPct < 40 || points[1].GainPct < 40 {
		t.Errorf("gain with 1–2 tasks = %.1f/%.1f%%, want large", points[0].GainPct, points[1].GainPct)
	}
	if math.Abs(points[7].GainPct) > 5 {
		t.Errorf("gain with 8 tasks = %.1f%%, want ~0", points[7].GainPct)
	}
	// Non-increasing overall trend: early average > late average.
	early := (points[0].GainPct + points[1].GainPct + points[2].GainPct) / 3
	late := (points[5].GainPct + points[6].GainPct + points[7].GainPct) / 3
	if early <= late {
		t.Errorf("gain should fall with task count: early %.1f%% vs late %.1f%%", early, late)
	}
}

// §6.4 headline numbers: 43 % execution-time reduction at 40 W, 21 % at
// 50 W.
func TestHotTaskSpeedup(t *testing.T) {
	r40 := RunConfig{}.HotTaskSpeedup(1, 40, 60_000)
	if r40.TimeReductionPct < 30 || r40.TimeReductionPct > 60 {
		t.Errorf("40 W time reduction = %.0f%%, want ~43%%", r40.TimeReductionPct)
	}
	r50 := RunConfig{}.HotTaskSpeedup(1, 50, 60_000)
	if r50.TimeReductionPct < 10 || r50.TimeReductionPct > 40 {
		t.Errorf("50 W time reduction = %.0f%%, want ~21%%", r50.TimeReductionPct)
	}
	// The tighter budget benefits more.
	if r40.TimeReductionPct <= r50.TimeReductionPct {
		t.Errorf("40 W (%.0f%%) should beat 50 W (%.0f%%)", r40.TimeReductionPct, r50.TimeReductionPct)
	}
	if !strings.Contains(FormatHotTaskSpeedup(r40), "budget 40W") {
		t.Error("FormatHotTaskSpeedup output malformed")
	}
}

func TestCalibratedEstimatorWorks(t *testing.T) {
	est, err := CalibratedEstimator(9)
	if err != nil {
		t.Fatal(err)
	}
	if est.HaltPower != 13.6 {
		t.Errorf("halt power = %v", est.HaltPower)
	}
}

func TestReferencePropsShape(t *testing.T) {
	props := ReferenceProps()
	if len(props) != 8 {
		t.Fatalf("props = %d", len(props))
	}
	for i, p := range props {
		if err := p.Validate(); err != nil {
			t.Errorf("package %d: %v", i, err)
		}
		if tau := p.TimeConstant(); math.Abs(tau-15) > 1e-9 {
			t.Errorf("package %d τ = %v, want 15", i, tau)
		}
	}
	// Packages 0, 3, 4 cool worst (Table 3's throttling set).
	for _, poor := range []int{0, 3, 4} {
		for _, good := range []int{2, 6, 7} {
			if props[poor].R <= props[good].R {
				t.Errorf("package %d should cool worse than %d", poor, good)
			}
		}
	}
}

// §4.3 ablation: using only the fast metric (runqueue power) causes
// ping-pong migrations; only the slow metric (thermal power) causes
// over-balancing churn. The combined policy migrates least.
func TestAblationBalancerMetrics(t *testing.T) {
	rows := RunConfig{}.AblationBalancerMetrics(61, 180_000)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	both, powerOnly, thermalOnly := rows[0], rows[1], rows[2]
	if powerOnly.Migrations < 4*both.Migrations {
		t.Errorf("power-only should ping-pong: %d vs %d migrations", powerOnly.Migrations, both.Migrations)
	}
	if thermalOnly.Migrations <= both.Migrations {
		t.Errorf("thermal-only should over-balance: %d vs %d migrations", thermalOnly.Migrations, both.Migrations)
	}
	// All modes still balance (the pathology is churn, not imbalance).
	for _, r := range rows {
		if r.SpreadW > 8 {
			t.Errorf("%s: spread %.1f W", r.Mode, r.SpreadW)
		}
	}
	if !strings.Contains(FormatAblation(rows), "migrations") {
		t.Error("FormatAblation output malformed")
	}
}

func TestAblationPlacement(t *testing.T) {
	p := RunConfig{}.AblationPlacement(2006, 90_000)
	if p.GainFullPolicy <= 0 {
		t.Errorf("full policy gain = %+.1f%%, want positive", p.GainFullPolicy*100)
	}
	if p.GainPlacementOnly <= -0.01 {
		t.Errorf("placement-only gain = %+.1f%%, want non-negative", p.GainPlacementOnly*100)
	}
	// Placement alone cannot beat the full policy.
	if p.GainPlacementOnly > p.GainFullPolicy+0.02 {
		t.Errorf("placement-only (%+.1f%%) beat full policy (%+.1f%%)",
			p.GainPlacementOnly*100, p.GainFullPolicy*100)
	}
}

// §7 CMP extension: hot task migration across the mc level eliminates
// throttling, uses intra-chip hops, and the coupling physics shows the
// "greater thermal stress" of co-located hot tasks.
func TestCMPHotTask(t *testing.T) {
	r := RunConfig{}.CMPHotTask(7, 120_000)
	if r.ThrottledAware > 0.03 {
		t.Errorf("energy-aware throttled %.1f%%, want ~0", r.ThrottledAware*100)
	}
	if r.ThrottledBaseline <= r.ThrottledAware {
		t.Error("baseline should throttle more than energy-aware")
	}
	if r.GainPct < 30 {
		t.Errorf("gain = %.0f%%, want large", r.GainPct)
	}
	if r.IntraChipHops == 0 {
		t.Error("no intra-chip hops: the mc level is not being used")
	}
	if r.CoupledTempC <= r.IsolatedTempC+1 {
		t.Errorf("thermal stress missing: coupled %.1f °C vs isolated %.1f °C",
			r.CoupledTempC, r.IsolatedTempC)
	}
	if !strings.Contains(FormatCMP(r), "intra-chip") {
		t.Error("FormatCMP output malformed")
	}
}

// §2.3: migration is superior to throttling. Energy-aware scheduling
// must match or beat both throttling policies on throughput while
// keeping the hot tasks at their fair share of the machine.
func TestPolicyComparison(t *testing.T) {
	r := RunConfig{}.PolicyComparison(2006, 120_000)
	if r.WorkRateTaskThrottle <= r.WorkRateCPUThrottle {
		t.Errorf("hot-task throttling (%v) should beat CPU throttling (%v)",
			r.WorkRateTaskThrottle, r.WorkRateCPUThrottle)
	}
	if r.WorkRateEnergyAware < r.WorkRateTaskThrottle-0.05 {
		t.Errorf("energy-aware (%v) should match task throttling (%v)",
			r.WorkRateEnergyAware, r.WorkRateTaskThrottle)
	}
	// The fairness dimension: task throttling starves the hot tasks;
	// migration keeps them near their fair share (25 % for 2 of 8
	// equal-demand tasks).
	if r.HotShareTask >= r.HotShareCPU {
		t.Errorf("task throttling should starve hot tasks: %v vs %v",
			r.HotShareTask, r.HotShareCPU)
	}
	if r.HotShareAware < 0.20 {
		t.Errorf("energy-aware hot-task share = %.1f%%, want ~25%%", r.HotShareAware*100)
	}
	if r.HotShareAware <= r.HotShareTask {
		t.Error("energy-aware should treat hot tasks better than task throttling")
	}
	if !strings.Contains(FormatPolicyComparison(r), "hot-task share") {
		t.Error("FormatPolicyComparison output malformed")
	}
}

// §7 multiple-temperature extension: equal-power tasks with different
// functional-unit footprints benefit from unit-aware balancing.
func TestUnitAware(t *testing.T) {
	r := RunConfig{}.UnitAware(7, 120_000)
	if r.MaxUnitTempAware >= r.MaxUnitTempBlind-1 {
		t.Errorf("unit awareness did not flatten hotspots: %.1f° vs %.1f°",
			r.MaxUnitTempAware, r.MaxUnitTempBlind)
	}
	if r.ThrottledAware >= r.ThrottledBlind {
		t.Errorf("unit awareness did not cut throttling: %.1f%% vs %.1f%%",
			r.ThrottledAware*100, r.ThrottledBlind*100)
	}
	if r.GainPct <= 0 {
		t.Errorf("gain = %.1f%%, want positive", r.GainPct)
	}
	if r.UnitExchanges == 0 {
		t.Error("no unit exchanges recorded")
	}
	if !strings.Contains(FormatUnitAware(r), "unit-aware") {
		t.Error("FormatUnitAware output malformed")
	}
}

// Sensitivity sweeps: verify the qualitative trade-off curves that back
// the DefaultConfig tuning values.
func TestSweepHysteresis(t *testing.T) {
	pts, err := RunConfig{}.SweepHysteresis(61, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	// Migrations fall monotonically with the margin…
	for i := 1; i < len(pts); i++ {
		if pts[i].Migrations > pts[i-1].Migrations {
			t.Errorf("migrations rose with margin: %+v", pts)
			break
		}
	}
	// …and the largest margin disables balancing (wide spread).
	last := pts[len(pts)-1]
	if last.Migrations != 0 || last.SpreadW < 5 {
		t.Errorf("huge margin should disable balancing: %+v", last)
	}
	// The zero margin churns far more than the default (0.06).
	if pts[0].Migrations < 5*pts[3].Migrations {
		t.Errorf("zero margin should churn: %d vs %d", pts[0].Migrations, pts[3].Migrations)
	}
	if !strings.Contains(FormatHysteresis(pts), "margin") {
		t.Error("FormatHysteresis malformed")
	}
}

func TestSweepTimeConstant(t *testing.T) {
	pts, err := RunConfig{}.SweepTimeConstant(7, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	// Hop period grows monotonically with tau, roughly linearly.
	for i := 1; i < len(pts); i++ {
		if pts[i].HopPeriodS <= pts[i-1].HopPeriodS {
			t.Fatalf("hop period not increasing with tau: %+v", pts)
		}
	}
	ratio := pts[len(pts)-1].HopPeriodS / pts[0].HopPeriodS
	tauRatio := pts[len(pts)-1].TauS / pts[0].TauS
	if ratio < tauRatio/3 || ratio > tauRatio*3 {
		t.Errorf("hop period scaling %.1f far from tau scaling %.1f", ratio, tauRatio)
	}
	if !strings.Contains(FormatTimeConstant(pts), "hop period") {
		t.Error("FormatTimeConstant malformed")
	}
}

func TestSweepDestGap(t *testing.T) {
	pts, err := RunConfig{}.SweepDestGap(7, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	// Small-to-moderate gaps: migration active, no throttling.
	if pts[0].Migrations == 0 || pts[0].ThrottledFrac > 0.01 {
		t.Errorf("small gap should migrate freely: %+v", pts[0])
	}
	// Huge gap: migration stops, throttling returns.
	last := pts[len(pts)-1]
	if last.Migrations != 0 || last.ThrottledFrac == 0 {
		t.Errorf("huge gap should stop migration: %+v", last)
	}
	if !strings.Contains(FormatDestGap(pts), "throttled") {
		t.Error("FormatDestGap malformed")
	}
}

// The tables must surface a calibration failure as an error (not a
// panic, not silently-wrong rows): stub the calibrator and check the
// error propagates through both tables.
func TestTablesSurfaceCalibrationFailure(t *testing.T) {
	orig := calibrated
	defer func() { calibrated = orig }()
	calibErr := errors.New("rank-deficient application set")
	calibrated = func(seed uint64) (*energy.Estimator, error) { return nil, calibErr }

	if rows, err := Table2(2006, 5000); !errors.Is(err, calibErr) {
		t.Errorf("Table2 error = %v (rows %v), want wrapped calibration error", err, rows)
	}
	if _, err := (RunConfig{}).Table3(shortTable3()); !errors.Is(err, calibErr) {
		t.Errorf("Table3 error = %v, want wrapped calibration error", err)
	}
}
