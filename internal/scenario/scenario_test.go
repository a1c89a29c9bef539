package scenario

import (
	"encoding/json"
	"strings"
	"testing"

	"energysched/internal/machine"
	"energysched/internal/sched"
	"energysched/internal/topology"
)

// TestCatalogBuildsOnEveryEngine checks every named scenario validates
// and builds on both engines.
func TestCatalogBuildsOnEveryEngine(t *testing.T) {
	for _, name := range Names() {
		s := MustNamed(name)
		if s.Name != name {
			t.Errorf("%s: Name = %q", name, s.Name)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", name, err)
			continue
		}
		for _, e := range []machine.Engine{machine.EngineAsync, machine.EngineLockstep} {
			m, err := s.Build(e, nil)
			if err != nil {
				t.Errorf("%s on %v: %v", name, e, err)
				continue
			}
			if got, want := m.Cfg.Layout.NumLogical(), s.Topology.Layout().NumLogical(); got != want {
				t.Errorf("%s on %v: %d logical CPUs, want %d", name, e, got, want)
			}
		}
	}
	if _, err := Named("no-such"); err == nil {
		t.Error("Named accepted an unknown scenario")
	}
}

// TestParse pins the wire format's strictness: unknown fields, a newer
// version and trailing data are errors, and a catalog spec's JSON round
// trip keeps its content hash.
func TestParse(t *testing.T) {
	for _, name := range Names() {
		s := MustNamed(name)
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Parse(data)
		if err != nil {
			t.Errorf("%s: Parse of its own JSON: %v", name, err)
			continue
		}
		if got.Hash() != s.Hash() {
			t.Errorf("%s: JSON round trip changed the hash", name)
		}
	}

	if _, err := Parse([]byte(validSpecJSON + "\n")); err != nil {
		t.Fatalf("valid spec: %v", err)
	}
	for _, c := range malformedSpecs {
		if _, err := Parse([]byte(c.body)); err == nil {
			t.Errorf("Parse accepted a spec with %s", c.why)
		}
	}
}

// validSpecJSON is a minimal valid spec on the wire, and malformedSpecs
// are its variants Parse must reject.
const validSpecJSON = `{"seed":1,"topology":{"nodes":1,"packages_per_node":2,"cores_per_package":1,"threads_per_core":1},` +
	`"sched":{"policy":"default"},"workload":[{"program":"bitcnts","count":1}],"run_ms":100}`

var malformedSpecs = []struct{ why, body string }{
	{"unknown field", strings.Replace(validSpecJSON, `"seed":1`, `"seed":1,"bogus":true`, 1)},
	{"the retired parallel engine's shard count", strings.Replace(validSpecJSON, `"seed":1`, `"seed":1,"shards":2`, 1)},
	{"newer version", strings.Replace(validSpecJSON, `"seed":1`, `"version":2,"seed":1`, 1)},
	{"trailing value", validSpecJSON + ` {"junk":true}`},
	{"trailing garbage", validSpecJSON + ` x`},
	{"malformed", validSpecJSON[:len(validSpecJSON)-1]},
}

// FuzzScenarioParse feeds arbitrary bytes through the path an untrusted
// spec takes — Parse, Validate, Build — without running the machine.
// Each stage must answer with an error, never a panic, and a spec that
// Validate accepts must build on the default engine too. Seeded with
// every catalog spec's JSON and the inputs of TestParse.
func FuzzScenarioParse(f *testing.F) {
	for _, name := range Names() {
		data, err := json.Marshal(MustNamed(name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(validSpecJSON))
	for _, c := range malformedSpecs {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			return
		}
		if _, err := s.Build(machine.EngineAsync, nil); err != nil {
			t.Fatalf("Validate accepted a spec Build rejects: %v\n%s", err, data)
		}
	})
}

// TestHash checks the content hash ignores the metadata fields and
// covers the machine-shaping ones.
func TestHash(t *testing.T) {
	s := MustNamed("mixed")
	h := s.Hash()
	meta := s
	meta.Name, meta.Note, meta.Version = "renamed", "a note", SpecVersion
	if meta.Hash() != h {
		t.Error("Hash changed with Name, Note or an explicit current Version")
	}
	seeded := s
	seeded.Seed++
	if seeded.Hash() == h {
		t.Error("Hash ignored Seed")
	}
	if MustNamed("dvfs").Hash() == h {
		t.Error("two different catalog scenarios share a hash")
	}
	// Build never reads the run length, so it must not split the hash.
	run := s
	run.RunMS, run.Chunks = s.RunMS+1000, 7
	if run.Hash() != h {
		t.Error("Hash changed with RunMS or Chunks")
	}
	// MaxQuantumMS is a machine.Config field, in the image.
	capped := s
	capped.MaxQuantumMS = 5
	if capped.Hash() == h {
		t.Error("Hash ignored MaxQuantumMS")
	}
	// Shards builds nothing, so it must not split the hash.
	sharded := s
	sharded.Shards = 2
	if sharded.Hash() != h {
		t.Error("Hash changed with the unread Shards")
	}
}

// TestValidateRejects covers the checks Validate makes before building.
func TestValidateRejects(t *testing.T) {
	base := MustNamed("mixed") // 8 packages
	for _, c := range []struct {
		why    string
		mutate func(s *Spec)
	}{
		{"RunMS 0", func(s *Spec) { s.RunMS = 0 }},
		{"negative RunMS", func(s *Spec) { s.RunMS = -5 }},
		{"RunMS above the bound", func(s *Spec) { s.RunMS = MaxRunMS + 1 }},
		{"task count 0", func(s *Spec) { s.Workload = []TaskGroup{{Program: "bitcnts", Count: 0}} }},
		{"package specs for fewer packages", func(s *Spec) { s.Packages = s.Packages[:3] }},
		{"budgets for fewer packages", func(s *Spec) { s.BudgetW = []float64{40, 40} }},
		{"newer version", func(s *Spec) { s.Version = SpecVersion + 1 }},
		{"invalid topology", func(s *Spec) { s.Topology.Nodes = 0 }},
		{"more logical CPUs than the bound", func(s *Spec) {
			s.Topology = TopoSpec{Nodes: 1, PackagesPerNode: topology.MaxLogical + 1, CoresPerPackage: 1, ThreadsPerCore: 1}
			s.Packages, s.BudgetW = nil, nil
		}},
		{"a layout whose CPU count overflows", func(s *Spec) {
			s.Topology = TopoSpec{Nodes: 1 << 32, PackagesPerNode: 1 << 31, CoresPerPackage: 1, ThreadsPerCore: 1}
			s.Packages, s.BudgetW = nil, nil
		}},
		{"more tasks than the bound", func(s *Spec) {
			s.Workload = []TaskGroup{{Program: "bitcnts", Count: MaxTasks}, {Program: "sshd", Count: 1}}
		}},
		{"unknown program", func(s *Spec) { s.Workload = []TaskGroup{{Program: "no-such", Count: 1}} }},
		// Time constants whose 1 ms thermal-power weight rounds to 0:
		// R·C overflowing to +Inf, and a finite R·C of 1e14 s.
		{"an infinite heat-sink time constant", func(s *Spec) {
			s.Packages = append([]PackageSpec(nil), s.Packages...)
			s.Packages[0] = PackageSpec{R: 1e300, C: 1e300, AmbientC: 25}
		}},
		{"a heat-sink time constant too long for a 1 ms update", func(s *Spec) {
			s.Packages = append([]PackageSpec(nil), s.Packages...)
			s.Packages[0] = PackageSpec{R: 1e7, C: 1e7, AmbientC: 25}
		}},
		{"unknown scope", func(s *Spec) { s.Throttle, s.Scope = true, "socket" }},
		{"balance period above the deadline-table bound", func(s *Spec) { s.Sched.BalancePeriodMS = sched.MaxPeriodMS + 1 }},
		{"hot-check period above the deadline-table bound", func(s *Spec) { s.Sched.HotCheckPeriodMS = 1e9 }},
		{"DVFS period above the deadline-table bound", func(s *Spec) {
			s.DVFS = &DVFSSpec{Governor: "ondemand", EvalPeriodMS: sched.MaxPeriodMS + 1}
		}},
	} {
		s := base
		c.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("Validate accepted a spec with %s", c.why)
		}
	}
}
