package scenario

import (
	"fmt"
	"sort"
	"strings"

	"energysched/internal/faults"
	"energysched/internal/topology"
)

// faultsReference is the estrace "faults" scenario's injector: gross
// under-estimation with slow drift, a noisy lossy diode, online
// recalibration, and the fallback armed.
func faultsReference() *faults.Spec {
	return &faults.Spec{
		WeightScale:       []float64{0.7},
		DriftPeriodMS:     2000,
		DriftFactor:       []float64{0.97},
		DriftSteps:        10,
		RecalPeriodMS:     250,
		RecalRate:         0.2,
		RecalWarmup:       1,
		DiodeNoiseC:       0.3,
		SampleDropP:       0.1,
		FallbackResidualW: 25,
		FallbackAfter:     3,
		FallbackRecovery:  4,
		FallbackScale:     0.5,
	}
}

// uniformPkgs returns n identical packages with heat-sink resistance r,
// the R·C = 15 s reference time constant, and 25 °C ambient — the
// calibration estrace's scenarios have always used.
func uniformPkgs(n int, r float64) []PackageSpec {
	out := make([]PackageSpec, n)
	for i := range out {
		out[i] = PackageSpec{R: r, C: 15 / r, AmbientC: 25}
	}
	return out
}

// table2Groups is the §6.1 mixed workload: count instances of each
// Table 2 program, optionally finite.
func table2Groups(count int, workMS float64) []TaskGroup {
	names := []string{"bitcnts", "memrw", "aluadd", "pushpop", "openssl", "bzip2"}
	out := make([]TaskGroup, len(names))
	for i, n := range names {
		out[i] = TaskGroup{Program: n, Count: count, WorkMS: workMS}
	}
	return out
}

// named builds the catalog fresh on every call — specs are mutable
// values (callers override Seed, engine, governor), so no shared state.
func named() map[string]Spec {
	cat := map[string]Spec{
		// The §6.4 / Fig. 9 setup: one bitcnts, 40 W packages, SMT on.
		"hottask": {
			Seed:     7,
			Topology: TopoOf(topology.XSeries445()),
			Packages: uniformPkgs(8, 0.2),
			BudgetW:  []float64{40},
			Throttle: true,
			Scope:    "package",
			Workload: []TaskGroup{{Program: "bitcnts", Count: 1}},
			RunMS:    60_000,
		},
		// The §6.1 mixed workload with energy balancing, SMT off.
		"mixed": {
			Seed:     7,
			Topology: TopoOf(topology.XSeries445NoSMT()),
			Packages: uniformPkgs(8, 0.2),
			BudgetW:  []float64{60},
			Workload: table2Groups(3, 0),
			RunMS:    60_000,
		},
		// The §7 CMP extension: one hot task on dual-core chips.
		"cmp": {
			Seed:     7,
			Topology: TopoOf(topology.CMP2x2()),
			Packages: uniformPkgs(2, 0.1),
			BudgetW:  []float64{100},
			Throttle: true,
			Scope:    "core",
			Workload: []TaskGroup{{Program: "bitcnts", Count: 1}},
			RunMS:    60_000,
		},
		// Frequency scaling on the hot-task machine; override
		// DVFS.Governor to select the policy.
		"dvfs": {
			Seed:     7,
			Topology: TopoOf(topology.XSeries445NoSMT()),
			Packages: uniformPkgs(8, 0.2),
			BudgetW:  []float64{40},
			Throttle: true,
			Scope:    "logical",
			DVFS:     &DVFSSpec{Governor: "performance"},
			Workload: []TaskGroup{
				{Program: "bitcnts", Count: 1},
				{Program: "bash", Count: 2},
				{Program: "sshd", Count: 2},
			},
			RunMS: 60_000,
		},
		// The robustness loop end to end: under-reporting drifting
		// weights, online recalibration from a noisy lossy diode, and
		// the fallback armed.
		"faults": {
			Seed:     7,
			Topology: TopoOf(topology.XSeries445NoSMT()),
			Packages: uniformPkgs(8, 0.2),
			BudgetW:  []float64{40},
			Throttle: true,
			Scope:    "package",
			Faults:   faultsReference(),
			Workload: []TaskGroup{
				{Program: "bitcnts", Count: 4},
				{Program: "sshd", Count: 2},
			},
			RunMS: 60_000,
		},

		// The benchmark engine regimes (internal/machine's bench_test.go
		// carries the timing envelopes): idle-heavy, saturated steady-state,
		// churn-heavy, and the thermal-governed DVFS mix.
		"engines/idle-heavy": {
			Seed:     1,
			Topology: TopoOf(topology.Server64()),
			BudgetW:  []float64{120},
			Workload: []TaskGroup{
				{Program: "sshd", Count: 3},
				{Program: "httpd", Count: 3},
				{Program: "bitcnts", Count: 2},
			},
			RunMS: 10_000,
		},
		"engines/steady-state": {
			Seed:     1,
			Topology: TopoOf(topology.XSeries445NoSMT()),
			BudgetW:  []float64{60},
			Workload: table2Groups(2, 0),
			RunMS:    10_000,
		},
		"engines/churn-heavy": {
			Seed:     1,
			Topology: TopoOf(topology.XSeries445NoSMT()),
			BudgetW:  []float64{50},
			Throttle: true,
			Scope:    "logical",
			Respawn:  true,
			Workload: []TaskGroup{
				{Program: "bitcnts", Count: 6, WorkMS: 2000},
				{Program: "memrw", Count: 6, WorkMS: 2000},
				{Program: "bash", Count: 4},
			},
			RunMS: 10_000,
		},
		"engines/dvfs-thermal": {
			Seed:     1,
			Topology: TopoOf(topology.XSeries445NoSMT()),
			BudgetW:  []float64{40},
			Throttle: true,
			Scope:    "logical",
			DVFS:     &DVFSSpec{Governor: "thermal"},
			Workload: []TaskGroup{
				{Program: "bitcnts", Count: 4},
				{Program: "bash", Count: 4},
			},
			RunMS: 10_000,
		},
	}

	// The large-layout benchmark scenarios: mostly-idle and saturated on
	// 64/256/1024 logical CPUs, plus the wide-idle park regime.
	for _, lay := range []struct {
		name   string
		layout topology.Layout
	}{
		{"64cpu", topology.Server64()},
		{"256cpu", topology.Server256()},
		{"1024cpu", topology.Server1024()},
	} {
		cat["large/"+lay.name+"/mostly-idle"] = Spec{
			Seed:     1,
			Topology: TopoOf(lay.layout),
			BudgetW:  []float64{120},
			Workload: []TaskGroup{
				{Program: "sshd", Count: 3},
				{Program: "httpd", Count: 3},
				{Program: "bitcnts", Count: 4},
			},
			RunMS: 5_000,
		}
		cat["large/"+lay.name+"/saturated"] = Spec{
			Seed:     1,
			Topology: TopoOf(lay.layout),
			BudgetW:  []float64{120},
			Workload: table2Groups(lay.layout.NumLogical()/6, 0),
			RunMS:    5_000,
		}
	}
	wideIdle := []TaskGroup{
		{Program: "sshd", Count: 6},
		{Program: "httpd", Count: 6},
	}
	cat["large/256cpu/wide-idle"] = Spec{
		Seed:     1,
		Topology: TopoOf(topology.Server256()),
		BudgetW:  []float64{120},
		Workload: wideIdle,
		RunMS:    5_000,
	}
	cat["large/1024cpu/wide-idle"] = Spec{
		Seed:     1,
		Topology: TopoOf(topology.Server1024()),
		BudgetW:  []float64{360},
		Workload: wideIdle,
		RunMS:    5_000,
	}

	for name, s := range cat {
		s.Name = name
		cat[name] = s
	}
	return cat
}

// Named returns the catalog scenario of that name.
func Named(name string) (Spec, error) {
	if s, ok := named()[name]; ok {
		return s, nil
	}
	return Spec{}, fmt.Errorf("scenario: unknown scenario %q (want one of %s)", name, strings.Join(Names(), ", "))
}

// MustNamed is Named but panics on unknown names — for static catalog
// references (benchmarks, tests) where a miss is a programming error.
func MustNamed(name string) Spec {
	s, err := Named(name)
	if err != nil {
		panic(err)
	}
	return s
}

// Names lists the catalog scenarios, sorted.
func Names() []string {
	cat := named()
	out := make([]string, 0, len(cat))
	for name := range cat {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
