package fuzz

import (
	"encoding/json"
	"strings"
	"testing"

	"energysched/internal/scenario"
)

// TestGenerateValid pins the generator contract: every seed yields a
// spec that validates and builds, and generation is deterministic.
func TestGenerateValid(t *testing.T) {
	for seed := uint64(0); seed < 500; seed++ {
		s := Generate(seed)
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, describe(s))
		}
		if s.CostMS() > costBudgetMS {
			t.Fatalf("seed %d: cost %dms over budget %dms", seed, s.CostMS(), costBudgetMS)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		a, b := Generate(seed), Generate(seed)
		aj, bj := mustJSON(t, a), mustJSON(t, b)
		if aj != bj {
			t.Fatalf("seed %d: two Generate calls differ:\n%s\n%s", seed, aj, bj)
		}
	}
}

// TestGenerateCoverage checks the generator actually reaches the
// feature space the fuzzer exists to exercise: heterogeneous thermal
// calibrations, throttling, DVFS, respawn storms, all-idle machines.
func TestGenerateCoverage(t *testing.T) {
	var hetero, throttled, dvfsOn, respawn, idle, unit, chunked int
	const n = 400
	for seed := uint64(0); seed < n; seed++ {
		s := Generate(seed)
		if len(s.Packages) > 1 && s.Packages[0] != s.Packages[1] {
			hetero++
		}
		if s.Throttle {
			throttled++
		}
		if s.DVFS != nil {
			dvfsOn++
		}
		if s.Respawn {
			respawn++
		}
		if len(s.Workload) == 0 {
			idle++
		}
		if s.UnitThermal {
			unit++
		}
		if s.Chunks > 1 {
			chunked++
		}
	}
	for name, got := range map[string]int{
		"heterogeneous packages": hetero, "throttled": throttled,
		"dvfs": dvfsOn, "respawn": respawn, "all-idle": idle,
		"unit thermal": unit, "chunked": chunked,
	} {
		if got < n/20 {
			t.Errorf("%s: only %d/%d scenarios", name, got, n)
		}
	}
}

// TestCheckSmoke runs the full four-engine oracle over a block of
// seeds. This is the in-tree slice of the CI smoke job; any failure
// here is a real engine-equivalence or invariant bug.
func TestCheckSmoke(t *testing.T) {
	n := uint64(8)
	if testing.Short() {
		n = 3
	}
	for seed := uint64(1); seed <= n; seed++ {
		s := Generate(seed)
		if f := Check(s); f != nil {
			t.Errorf("seed %d: %v", seed, f)
		}
	}
}

// TestShrink drives the shrinker with a synthetic predicate ("fails
// whenever the httpd group is present") and checks it strips everything
// else while keeping the failure.
func TestShrink(t *testing.T) {
	spec := Generate(42)
	spec.Workload = append(spec.Workload, scenario.TaskGroup{Program: "httpd", Count: 4})
	spec.Topology = scenario.TopoSpec{Nodes: 4, PackagesPerNode: 2, CoresPerPackage: 2, ThreadsPerCore: 2}
	resizePackages(&spec)
	spec.RunMS = 8000
	if err := spec.Validate(); err != nil {
		t.Fatalf("setup: %v", err)
	}
	hasHTTPD := func(s scenario.Spec) bool {
		for _, g := range s.Workload {
			if g.Program == "httpd" {
				return true
			}
		}
		return false
	}
	min, calls := Shrink(spec, hasHTTPD)
	if calls == 0 {
		t.Fatal("shrinker made no attempts")
	}
	if !hasHTTPD(min) {
		t.Fatalf("shrinker lost the failure: %s", describe(min))
	}
	if err := min.Validate(); err != nil {
		t.Fatalf("shrunk spec invalid: %v", err)
	}
	if got := min.Topology.Layout().NumLogical(); got != 1 {
		t.Errorf("topology not fully shrunk: %d logical CPUs", got)
	}
	if len(min.Workload) != 1 || min.Workload[0].Count != 1 {
		t.Errorf("workload not fully shrunk: %+v", min.Workload)
	}
	if min.RunMS > 500 {
		t.Errorf("run not shrunk: %dms", min.RunMS)
	}
	if min.DVFS != nil || min.Throttle || min.UnitThermal || min.Respawn {
		t.Errorf("optional subsystems not stripped: %s", describe(min))
	}
	if !strings.HasSuffix(min.Name, "-min") {
		t.Errorf("shrunk name %q missing -min suffix", min.Name)
	}
}

// TestSpecRoundTrip pins the corpus JSON format.
func TestSpecRoundTrip(t *testing.T) {
	s := Generate(7)
	s.Note = "round-trip"
	path := t.TempDir() + "/spec.json"
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := scenario.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, got) != mustJSON(t, s) {
		t.Fatalf("round trip changed spec:\n%s\n%s", mustJSON(t, s), mustJSON(t, got))
	}
}

func mustJSON(t *testing.T, s scenario.Spec) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
