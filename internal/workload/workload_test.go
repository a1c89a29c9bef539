package workload

import (
	"math"
	"testing"

	"energysched/internal/counters"
	"energysched/internal/energy"
	"energysched/internal/rng"
)

func testCatalog() (*Catalog, *energy.TrueModel) {
	m := energy.DefaultTrueModel()
	return NewCatalog(m), m
}

func TestCatalogValidates(t *testing.T) {
	c, _ := testCatalog()
	for _, p := range append(c.Table2Set(), c.Bash(), c.Grep(), c.Sshd()) {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	c, _ := testCatalog()
	for _, name := range []string{"bitcnts", "memrw", "aluadd", "pushpop", "openssl", "bzip2", "bash", "grep", "sshd"} {
		p := c.ByName(name)
		if p == nil || p.Name != name {
			t.Errorf("ByName(%q) = %v", name, p)
		}
	}
	if c.ByName("nonexistent") != nil {
		t.Error("ByName of unknown program should be nil")
	}
}

func TestBinariesDistinct(t *testing.T) {
	c, _ := testCatalog()
	seen := map[uint64]string{}
	for _, p := range append(c.Table2Set(), c.Bash(), c.Grep(), c.Sshd()) {
		if prev, ok := seen[p.Binary]; ok {
			t.Errorf("programs %s and %s share binary %d", prev, p.Name, p.Binary)
		}
		seen[p.Binary] = p.Name
	}
}

// Table 2: the static programs' true powers must match the published
// values.
func TestTable2Powers(t *testing.T) {
	c, m := testCatalog()
	cases := []struct {
		prog  *Program
		watts float64
	}{
		{c.Bitcnts(), 61}, {c.Memrw(), 38}, {c.Aluadd(), 50}, {c.Pushpop(), 47},
	}
	for _, tc := range cases {
		got := m.ExecPower(tc.prog.Phases[0].Rates)
		if math.Abs(got-tc.watts) > 0.01 {
			t.Errorf("%s power = %.2f W, want %.0f", tc.prog.Name, got, tc.watts)
		}
	}
}

// Table 2: openssl varies between 42 W and 57 W.
func TestOpensslPowerRange(t *testing.T) {
	c, m := testCatalog()
	p := c.Openssl()
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, ph := range p.Phases {
		if ph.Name == "setup" {
			continue // brief transition stage, not a benchmark phase
		}
		w := m.ExecPower(ph.Rates)
		lo = math.Min(lo, w)
		hi = math.Max(hi, w)
	}
	if math.Abs(lo-42) > 0.01 || math.Abs(hi-57) > 0.01 {
		t.Errorf("openssl benchmark range = [%.1f, %.1f] W, want [42, 57]", lo, hi)
	}
}

func TestValidateCatchesBadPrograms(t *testing.T) {
	bad := []*Program{
		{Name: "", Phases: []Phase{{}}},
		{Name: "x"},
		{Name: "x", Phases: []Phase{{Next: []int{5}}}},
		{Name: "x", Phases: []Phase{{MeanDurMS: -1}}},
		{Name: "x", Phases: []Phase{{BlockProbPerMS: 2}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad program %d validated", i)
		}
	}
}

func TestTaskRunsAndGeneratesEvents(t *testing.T) {
	c, m := testCatalog()
	task := NewTask(1, c.Bitcnts(), rng.New(1))
	var total counters.Counts
	for i := 0; i < 100; i++ {
		res := task.Tick(1, 1)
		if res.Status != Ran {
			t.Fatalf("tick %d: status %v", i, res.Status)
		}
		total = total.Add(res.Counts)
	}
	// 100 ms at 61 W ≈ 6.1 J.
	e := m.EnergyJ(total, 0)
	if math.Abs(e-6.1) > 0.2 {
		t.Fatalf("100ms bitcnts energy = %v J, want ~6.1", e)
	}
	if task.DoneWork() != 100 {
		t.Fatalf("DoneWork = %v", task.DoneWork())
	}
}

func TestTaskSpeedScalesEventsAndWork(t *testing.T) {
	c, _ := testCatalog()
	full := NewTask(1, c.Aluadd(), rng.New(2))
	half := NewTask(2, c.Aluadd(), rng.New(2))
	var fullUops, halfUops uint64
	for i := 0; i < 200; i++ {
		fullUops += full.Tick(1, 1).Counts[counters.UopsRetired]
		halfUops += half.Tick(0.5, 1).Counts[counters.UopsRetired]
	}
	ratio := float64(halfUops) / float64(fullUops)
	if math.Abs(ratio-0.5) > 0.05 {
		t.Fatalf("half-speed uops ratio = %v, want ~0.5", ratio)
	}
	if math.Abs(half.DoneWork()-100) > 1e-9 {
		t.Fatalf("half-speed work = %v, want 100", half.DoneWork())
	}
	// Cycles (and with them the static power share) scale with speed
	// too: a thread that gets half the issue slots draws half the
	// power.
	c1 := NewTask(3, c.Aluadd(), rng.New(3)).Tick(0.5, 1).Counts[counters.Cycles]
	c2 := NewTask(4, c.Aluadd(), rng.New(3)).Tick(1, 1).Counts[counters.Cycles]
	if c1*2 != c2 {
		t.Fatalf("cycles did not scale with speed: %d vs %d", c1, c2)
	}
}

func TestTaskInvalidSpeedPanics(t *testing.T) {
	c, _ := testCatalog()
	task := NewTask(1, c.Memrw(), rng.New(1))
	for _, s := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("speed %v did not panic", s)
				}
			}()
			task.Tick(s, 1)
		}()
	}
}

func TestFiniteWorkFinishes(t *testing.T) {
	c, _ := testCatalog()
	p := WithWork(c.Bitcnts(), 50)
	task := NewTask(1, p, rng.New(4))
	finished := false
	for i := 0; i < 60; i++ {
		if task.Tick(1, 1).Status == Finished {
			finished = true
			if i != 49 {
				t.Fatalf("finished at tick %d, want 49", i)
			}
			break
		}
	}
	if !finished {
		t.Fatal("task never finished")
	}
}

func TestOpensslCyclesThroughPhases(t *testing.T) {
	c, _ := testCatalog()
	task := NewTask(1, c.Openssl(), rng.New(6))
	seen := map[string]bool{}
	for i := 0; i < 120000; i++ {
		task.Tick(1, 1)
		seen[task.PhaseName()] = true
	}
	for _, want := range []string{"setup", "md5", "sha", "des", "aes", "rsa"} {
		if !seen[want] {
			t.Errorf("openssl never entered phase %s", want)
		}
	}
}

func TestInteractiveTasksBlock(t *testing.T) {
	c, _ := testCatalog()
	task := NewTask(1, c.Bash(), rng.New(7))
	blocks := 0
	for i := 0; i < 5000; i++ {
		res := task.Tick(1, 1)
		if res.Status == Blocked {
			blocks++
			if res.BlockMS < 1 {
				t.Fatalf("block duration %v < 1ms", res.BlockMS)
			}
		}
	}
	if blocks == 0 {
		t.Fatal("bash never blocked in 5s of execution")
	}
}

func TestStaticProgramsDontBlock(t *testing.T) {
	c, _ := testCatalog()
	task := NewTask(1, c.Bitcnts(), rng.New(8))
	for i := 0; i < 5000; i++ {
		if res := task.Tick(1, 1); res.Status != Ran {
			t.Fatalf("bitcnts status %v at tick %d", res.Status, i)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	c, _ := testCatalog()
	a := NewTask(1, c.Bzip2(), rng.New(99))
	b := NewTask(1, c.Bzip2(), rng.New(99))
	for i := 0; i < 10000; i++ {
		ra, rb := a.Tick(1, 1), b.Tick(1, 1)
		if ra != rb {
			t.Fatalf("replay diverged at tick %d", i)
		}
	}
}

// slicePowers measures per-timeslice power of a solo task the way the
// Table 1 experiment does: 100 ms slices, power = slice energy / time.
func slicePowers(t *testing.T, p *Program, m *energy.TrueModel, slices int, seed uint64) []float64 {
	t.Helper()
	task := NewTask(1, p, rng.New(seed))
	powers := make([]float64, 0, slices)
	for s := 0; s < slices; s++ {
		var cnt counters.Counts
		ran := 0
		for ms := 0; ms < 100; ms++ {
			res := task.Tick(1, 1)
			cnt = cnt.Add(res.Counts)
			ran++
			if res.Status == Blocked {
				break // slice ends early; power measured over executed part
			}
		}
		powers = append(powers, m.EnergyJ(cnt, 0)/(float64(ran)/1000))
	}
	return powers
}

// Table 1 shape: bzip2/grep/openssl have large maxima, bash/sshd small
// ones, and all averages stay in the low single digits.
func TestTable1VariabilityShape(t *testing.T) {
	c, m := testCatalog()
	maxChange := func(powers []float64) (mx, avg float64) {
		for i := 1; i < len(powers); i++ {
			chg := math.Abs(powers[i]-powers[i-1]) / powers[i-1] * 100
			if chg > mx {
				mx = chg
			}
			avg += chg
		}
		return mx, avg / float64(len(powers)-1)
	}
	type band struct {
		prog         *Program
		maxLo, maxHi float64
		avgLo, avgHi float64
	}
	// Loose bands around the published values (max %, avg %):
	// bash 19/2.05, bzip2 88.8/5.45, grep 84.3/1.06, sshd 18.3/1.38,
	// openssl 63.2/2.48.
	bands := []band{
		{c.Bash(), 8, 35, 0.5, 5},
		{c.Bzip2(), 55, 120, 2.5, 9},
		{c.Grep(), 55, 110, 0.3, 3},
		{c.Sshd(), 8, 35, 0.4, 4},
		{c.Openssl(), 35, 90, 0.8, 6},
	}
	for _, b := range bands {
		powers := slicePowers(t, b.prog, m, 600, 42)
		mx, avg := maxChange(powers)
		if mx < b.maxLo || mx > b.maxHi {
			t.Errorf("%s: max change %.1f%% outside [%v, %v]", b.prog.Name, mx, b.maxLo, b.maxHi)
		}
		if avg < b.avgLo || avg > b.avgHi {
			t.Errorf("%s: avg change %.2f%% outside [%v, %v]", b.prog.Name, avg, b.avgLo, b.avgHi)
		}
	}
}

// The paper's premise (§3.3): "the energy a task consumed the last time
// it was executed is a good guess for the energy that the task will
// consume the next time" — successive-slice changes are small most of
// the time. Verify the median change is tiny for every Table 1 program.
func TestSuccessiveSlicesMostlySimilar(t *testing.T) {
	c, m := testCatalog()
	for _, p := range c.Table1Set() {
		powers := slicePowers(t, p, m, 500, 7)
		small := 0
		for i := 1; i < len(powers); i++ {
			chg := math.Abs(powers[i]-powers[i-1]) / powers[i-1]
			if chg < 0.05 {
				small++
			}
		}
		frac := float64(small) / float64(len(powers)-1)
		if frac < 0.72 {
			t.Errorf("%s: only %.0f%% of successive slices within 5%%", p.Name, frac*100)
		}
	}
}

func TestWithWorkDoesNotMutateOriginal(t *testing.T) {
	c, _ := testCatalog()
	p := c.Bitcnts()
	q := WithWork(p, 1000)
	if p.WorkMS != 0 || q.WorkMS != 1000 {
		t.Fatalf("WithWork mutated original: %v %v", p.WorkMS, q.WorkMS)
	}
}

// ---- extension programs ----

func TestExtensionProgramsValidate(t *testing.T) {
	c, m := testCatalog()
	for _, p := range []*Program{c.Intmix(), c.Fpmix(), c.Httpd(), c.Gcc()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		// Every phase's power must be reachable and positive.
		for _, ph := range p.Phases {
			if w := m.ExecPower(ph.Rates); w < 25 || w > 65 {
				t.Errorf("%s/%s power = %.1f W", p.Name, ph.Name, w)
			}
		}
	}
}

// Intmix and Fpmix draw identical total power but dissipate it at
// different events — the §7 premise.
func TestIntmixFpmixEqualPowerDifferentEvents(t *testing.T) {
	c, m := testCatalog()
	pi, pf := c.Intmix().Phases[0].Rates, c.Fpmix().Phases[0].Rates
	wi, wf := m.ExecPower(pi), m.ExecPower(pf)
	if math.Abs(wi-wf) > 0.01 {
		t.Fatalf("powers differ: %v vs %v", wi, wf)
	}
	if pi[counters.FPOps] != 0 {
		t.Error("intmix should issue no FP ops")
	}
	if pf[counters.FPOps] == 0 {
		t.Error("fpmix should be FP-dominated")
	}
}

func TestHttpdMostlyBlocked(t *testing.T) {
	c, _ := testCatalog()
	task := NewTask(1, c.Httpd(), rng.New(11))
	blocks := 0
	for i := 0; i < 20000; i++ {
		if task.Tick(1, 1).Status == Blocked {
			blocks++
		}
	}
	if blocks < 50 {
		t.Fatalf("httpd blocked only %d times in 20 s of CPU time", blocks)
	}
}

func TestGccCyclesPhases(t *testing.T) {
	c, _ := testCatalog()
	task := NewTask(1, c.Gcc(), rng.New(12))
	seen := map[string]bool{}
	for i := 0; i < 30000; i++ {
		task.Tick(1, 1)
		seen[task.PhaseName()] = true
	}
	for _, want := range []string{"parse", "optimize", "emit"} {
		if !seen[want] {
			t.Errorf("gcc never entered %s", want)
		}
	}
}
