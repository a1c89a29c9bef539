package units

import (
	"math"
	"testing"
	"testing/quick"

	"energysched/internal/counters"
	"energysched/internal/energy"
)

func TestKindString(t *testing.T) {
	if IntCore.String() != "int" || FPUnit.String() != "fp" || MemIF.String() != "mem" {
		t.Fatal("unit names wrong")
	}
	if Kind(9).String() != "unit(9)" {
		t.Fatal("out-of-range name wrong")
	}
}

// Split must conserve energy: the per-unit attribution sums to the
// scalar estimator's energy for the same delta.
func TestSplitConservesEnergy(t *testing.T) {
	m := energy.DefaultTrueModel()
	est := energy.PerfectEstimator(m)
	var sig energy.Signature
	sig[counters.UopsRetired] = 0.4
	sig[counters.FPOps] = 0.3
	sig[counters.MemTransactions] = 0.3
	c := m.RatesForPower(52, sig).Counts(100)
	e := Split(m.Weights, c)
	if math.Abs(e.Total()-est.EnergyJ(c, 0)) > 1e-9 {
		t.Fatalf("Split total %v vs estimator %v", e.Total(), est.EnergyJ(c, 0))
	}
}

func TestSplitAttribution(t *testing.T) {
	m := energy.DefaultTrueModel()
	// Pure FP dynamic load: the FP unit gets all dynamic energy; the
	// other units only see their static share.
	var sig energy.Signature
	sig[counters.FPOps] = 1
	c := m.RatesForPower(50, sig).Counts(100)
	e := Split(m.Weights, c)
	k, _ := e.Peak()
	if k != FPUnit {
		t.Fatalf("peak unit = %v, want fp", k)
	}
	// Dynamic = 25 W over 100 ms = 2.5 J to FP + static share.
	if e[FPUnit] < 2.5 {
		t.Fatalf("fp energy = %v, want > 2.5 J", e[FPUnit])
	}
	// Integer load peaks at the integer core.
	var sigI energy.Signature
	sigI[counters.UopsRetired] = 0.8
	sigI[counters.Branches] = 0.2
	cI := m.RatesForPower(50, sigI).Counts(100)
	if k, _ := Split(m.Weights, cI).Peak(); k != IntCore {
		t.Fatalf("int workload peak unit = %v", k)
	}
}

func TestProfileSeedAndSamples(t *testing.T) {
	p := NewProfile()
	if p.Primed() {
		t.Fatal("new profile primed")
	}
	p.Seed(40)
	if !p.Primed() {
		t.Fatal("seed did not prime")
	}
	if math.Abs(p.Vector().Total()-40) > 1e-9 {
		t.Fatalf("seeded total = %v, want 40", p.Vector().Total())
	}
	// Feed FP-heavy samples: the dominant unit flips to FP.
	var e Energies
	e[FPUnit] = 4.0 // 40 W over 100 ms
	e[IntCore] = 0.5
	for i := 0; i < 20; i++ {
		p.AddSample(e, 100)
	}
	if k, _ := p.Vector().Peak(); k != FPUnit {
		t.Fatalf("dominant = %v, want fp", k)
	}
	if math.Abs(p.Watts(FPUnit)-40) > 1 {
		t.Fatalf("fp watts = %v", p.Watts(FPUnit))
	}
	// Zero-duration samples ignored.
	before := p.Vector()
	p.AddSample(Energies{1, 1, 1}, 0)
	if p.Vector() != before {
		t.Fatal("zero-duration sample changed profile")
	}
}

func TestEnergiesPeakAndTotal(t *testing.T) {
	e := Energies{1, 5, 3}
	if k, v := e.Peak(); k != FPUnit || v != 5 {
		t.Fatalf("Peak = %v %v", k, v)
	}
	if e.Total() != 9 {
		t.Fatalf("Total = %v", e.Total())
	}
}

// Property: Split is additive over deltas and conserves totals for
// arbitrary counts.
func TestQuickSplitAdditiveConserving(t *testing.T) {
	m := energy.DefaultTrueModel()
	est := energy.PerfectEstimator(m)
	f := func(a, b [6]uint32) bool {
		var ca, cb counters.Counts
		for i := 0; i < int(counters.NumEvents); i++ {
			ca[i], cb[i] = uint64(a[i]), uint64(b[i])
		}
		ea, eb := Split(m.Weights, ca), Split(m.Weights, cb)
		sum := Split(m.Weights, ca.Add(cb))
		for u := Kind(0); u < NumUnits; u++ {
			if math.Abs(sum[u]-(ea[u]+eb[u])) > 1e-6*(1+sum[u]) {
				return false
			}
		}
		return math.Abs(sum.Total()-est.EnergyJ(ca.Add(cb), 0)) < 1e-6*(1+sum.Total())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
