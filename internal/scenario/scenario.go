// Package scenario defines the one versioned, serializable scenario
// schema every consumer of "a machine plus its workload" shares: the
// differential fuzzer's generator and corpus, the engine benchmarks
// (internal/machine's BenchmarkEngines and BenchmarkLargeTopology),
// estrace's named scenarios, the esfarmd sweep service, and the
// repository benchmark in bench/. A fuzz-shrunk failure therefore
// replays verbatim against the daemon, and a benchmark scenario is a
// daemon request away from a parameter sweep — one schema, no lossy
// conversions.
//
// The JSON form is the wire and corpus format. It is versioned: Version
// 0 (absent) is read as the current version; Restore-style consumers
// reject anything newer than they know.
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"energysched/internal/dvfs"
	"energysched/internal/energy"
	"energysched/internal/faults"
	"energysched/internal/machine"
	"energysched/internal/sched"
	"energysched/internal/thermal"
	"energysched/internal/topology"
	"energysched/internal/trace"
	"energysched/internal/workload"
)

// SpecVersion is the current schema version. A Spec with Version 0 is
// treated as current (the pre-versioning corpus format is identical).
const SpecVersion = 1

// TopoSpec is a serializable topology.Layout.
type TopoSpec struct {
	Nodes           int `json:"nodes"`
	PackagesPerNode int `json:"packages_per_node"`
	CoresPerPackage int `json:"cores_per_package"`
	ThreadsPerCore  int `json:"threads_per_core"`
}

// Layout converts to the topology package's type.
func (t TopoSpec) Layout() topology.Layout {
	return topology.Layout{
		Nodes:             t.Nodes,
		PackagesPerNode:   t.PackagesPerNode,
		CoresPerPackage:   t.CoresPerPackage,
		ThreadsPerPackage: t.ThreadsPerCore,
	}
}

// TopoOf is Layout's inverse: the serializable form of a layout.
func TopoOf(l topology.Layout) TopoSpec {
	return TopoSpec{
		Nodes:           l.Nodes,
		PackagesPerNode: l.PackagesPerNode,
		CoresPerPackage: l.CoresPerPackage,
		ThreadsPerCore:  l.ThreadsPerPackage,
	}
}

// PackageSpec is one package's thermal calibration. Heterogeneous
// calibrations (distinct R·C across packages) drive the machine's
// per-tracker thermal-weight fallback.
type PackageSpec struct {
	R        float64 `json:"r"`
	C        float64 `json:"c"`
	AmbientC float64 `json:"ambient_c"`
}

// SchedSpec selects and tunes the scheduling policy.
type SchedSpec struct {
	// Policy is "default" (all paper mechanisms on) or "baseline"
	// (load balancing only).
	Policy string `json:"policy"`
	// BalancePeriodMS / HotCheckPeriodMS override the policy's
	// deadline periods when > 0.
	BalancePeriodMS  float64 `json:"balance_period_ms,omitempty"`
	HotCheckPeriodMS float64 `json:"hot_check_period_ms,omitempty"`
	UnitAware        bool    `json:"unit_aware,omitempty"`
}

// DVFSSpec is a serializable dvfs.Config.
type DVFSSpec struct {
	Governor            string      `json:"governor"`
	EvalPeriodMS        int         `json:"eval_period_ms,omitempty"`
	TransitionLatencyMS int         `json:"transition_latency_ms,omitempty"`
	Ladder              [][]float64 `json:"ladder,omitempty"` // [freqMHz, voltageV] pairs, ascending
}

// TaskGroup spawns Count instances of a catalog program; WorkMS > 0
// makes them finite (finishing after that much executed work).
type TaskGroup struct {
	Program string  `json:"program"`
	Count   int     `json:"count"`
	WorkMS  float64 `json:"work_ms,omitempty"`
}

// Spec is a fully serializable scenario: everything needed to rebuild
// the same machine under any engine.
type Spec struct {
	// Version is the schema version; 0 reads as SpecVersion.
	Version int    `json:"version,omitempty"`
	Name    string `json:"name,omitempty"`
	// Note records the root cause a corpus scenario regression-tests.
	Note string `json:"note,omitempty"`
	Seed uint64 `json:"seed"`

	Topology TopoSpec      `json:"topology"`
	Packages []PackageSpec `json:"packages,omitempty"` // empty: reference props

	BudgetW    []float64 `json:"budget_w,omitempty"` // 1 value or one per package
	LimitTempC float64   `json:"limit_temp_c,omitempty"`

	Throttle       bool   `json:"throttle,omitempty"`
	Scope          string `json:"scope,omitempty"` // "logical", "core", "package"
	TaskThrottling bool   `json:"task_throttling,omitempty"`

	UnitThermal bool    `json:"unit_thermal,omitempty"`
	UnitLimitC  float64 `json:"unit_limit_c,omitempty"`

	Sched SchedSpec `json:"sched"`
	DVFS  *DVFSSpec `json:"dvfs,omitempty"`

	MaxQuantumMS    int  `json:"max_quantum_ms,omitempty"`
	MonitorPeriodMS int  `json:"monitor_period_ms,omitempty"`
	Respawn         bool `json:"respawn,omitempty"`

	Workload []TaskGroup `json:"workload"`

	RunMS int64 `json:"run_ms"`
	// Chunks splits the fast engines' Run into this many segments
	// (plus a remainder), exercising Run-boundary clamping and the
	// async engine's end-of-Run settling. ≤ 1 means one call.
	Chunks int `json:"chunks,omitempty"`
	// Shards is read by nothing and travels in no JSON.
	//
	// Deprecated: kept only because the repository benchmark
	// (bench/traced.go) still sets it. It goes when the benchmark drops
	// its parallel2 row.
	Shards int `json:"-"`

	// Faults injects estimator mis-calibration/drift, thermal-diode
	// sensor faults, and the recalibration/fallback loop — all
	// deterministic from Seed, so the oracle cross-checks the fault
	// paths across engines like any other machine state.
	Faults *faults.Spec `json:"faults,omitempty"`
}

// scopeOf maps the spec's scope name; empty defaults to "logical".
func scopeOf(s string) (machine.ThrottleScope, error) {
	switch s {
	case "", "logical":
		return machine.ThrottlePerLogical, nil
	case "core":
		return machine.ThrottlePerCore, nil
	case "package":
		return machine.ThrottlePerPackage, nil
	}
	return 0, fmt.Errorf("scenario: unknown throttle scope %q", s)
}

// schedConfig resolves the spec's scheduling policy.
func (s Spec) schedConfig() (sched.Config, error) {
	var cfg sched.Config
	switch s.Sched.Policy {
	case "", "default":
		cfg = sched.DefaultConfig()
	case "baseline":
		cfg = sched.BaselineConfig()
	default:
		return cfg, fmt.Errorf("scenario: unknown sched policy %q", s.Sched.Policy)
	}
	if s.Sched.BalancePeriodMS > 0 {
		cfg.BalancePeriodMS = s.Sched.BalancePeriodMS
	}
	if s.Sched.HotCheckPeriodMS > 0 {
		cfg.HotCheckPeriodMS = s.Sched.HotCheckPeriodMS
	}
	if s.Sched.UnitAware {
		cfg.UnitAwareBalancing = true
	}
	return cfg, nil
}

// machineConfig maps the spec to a machine.Config for one engine.
func (s Spec) machineConfig(e machine.Engine) (machine.Config, error) {
	schedCfg, err := s.schedConfig()
	if err != nil {
		return machine.Config{}, err
	}
	scope, err := scopeOf(s.Scope)
	if err != nil {
		return machine.Config{}, err
	}
	cfg := machine.Config{
		Layout:          s.Topology.Layout(),
		Engine:          e,
		MaxQuantumMS:    s.MaxQuantumMS,
		Sched:           schedCfg,
		Seed:            s.Seed,
		LimitTempC:      s.LimitTempC,
		ThrottleEnabled: s.Throttle,
		Scope:           scope,
		TaskThrottling:  s.TaskThrottling,
		UnitThermal:     s.UnitThermal,
		UnitLimitC:      s.UnitLimitC,
		RespawnFinished: s.Respawn,
		MonitorPeriodMS: s.MonitorPeriodMS,
		Faults:          s.Faults,
	}
	if len(s.Packages) > 0 {
		cfg.PackageProps = make([]thermal.Properties, len(s.Packages))
		for i, p := range s.Packages {
			cfg.PackageProps[i] = thermal.Properties{R: p.R, C: p.C, AmbientC: p.AmbientC}
		}
	}
	if len(s.BudgetW) > 0 {
		cfg.PackageMaxPowerW = append([]float64(nil), s.BudgetW...)
	}
	if s.DVFS != nil {
		d := &dvfs.Config{
			Governor:            s.DVFS.Governor,
			EvalPeriodMS:        s.DVFS.EvalPeriodMS,
			TransitionLatencyMS: s.DVFS.TransitionLatencyMS,
		}
		for _, ps := range s.DVFS.Ladder {
			if len(ps) != 2 {
				return cfg, fmt.Errorf("scenario: ladder entry %v: want [freqMHz, voltageV]", ps)
			}
			d.Ladder = append(d.Ladder, dvfs.PState{FreqMHz: ps[0], VoltageV: ps[1]})
		}
		cfg.DVFS = d
	}
	return cfg, nil
}

// Build constructs the spec's machine for one engine, with an attached
// trace recorder, and spawns the workload. The same spec built twice
// produces byte-identical machines.
func (s Spec) Build(e machine.Engine, rec *trace.Recorder) (*machine.Machine, error) {
	if s.Version != 0 && s.Version != SpecVersion {
		return nil, fmt.Errorf("scenario: spec version %d, want %d", s.Version, SpecVersion)
	}
	cfg, err := s.machineConfig(e)
	if err != nil {
		return nil, err
	}
	cfg.Trace = rec
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	cat := workload.NewCatalog(energy.DefaultTrueModel())
	for _, g := range s.Workload {
		prog := cat.ByName(g.Program)
		if prog == nil {
			return nil, fmt.Errorf("scenario: unknown program %q", g.Program)
		}
		if g.WorkMS > 0 {
			prog = workload.WithWork(prog, g.WorkMS)
		}
		m.SpawnN(prog, g.Count)
	}
	return m, nil
}

// Validate rejects specs that cannot build a machine — the fuzzer's
// generator must never produce one, and corpus or request edits are
// caught early.
func (s Spec) Validate() error {
	if s.Version != 0 && s.Version != SpecVersion {
		return fmt.Errorf("scenario: spec version %d, want %d", s.Version, SpecVersion)
	}
	if err := s.Topology.Layout().Validate(); err != nil {
		return err
	}
	nPkg := s.Topology.Layout().NumPackages()
	if n := len(s.Packages); n != 0 && n != nPkg {
		return fmt.Errorf("scenario: %d package specs for %d packages", n, nPkg)
	}
	if n := len(s.BudgetW); n != 0 && n != 1 && n != nPkg {
		return fmt.Errorf("scenario: %d budgets for %d packages", n, nPkg)
	}
	if s.RunMS < 1 || s.RunMS > MaxRunMS {
		return fmt.Errorf("scenario: RunMS %d out of range", s.RunMS)
	}
	total := 0
	for _, g := range s.Workload {
		if g.Count < 1 {
			return fmt.Errorf("scenario: task group %q count %d", g.Program, g.Count)
		}
		if g.Count > MaxTasks-total {
			return fmt.Errorf("scenario: workload spawns more than %d tasks", MaxTasks)
		}
		total += g.Count
	}
	// Everything else is validated by the machine constructor.
	_, err := s.Build(machine.EngineLockstep, nil)
	return err
}

// MaxTasks bounds a spec's initially spawned tasks (the summed Count of
// its workload groups).
const MaxTasks = 1 << 16

// MaxRunMS bounds a spec's run length (about 50 days of simulated
// time), so CostMS cannot overflow: topology.MaxLogical × MaxRunMS is
// 2^44.
const MaxRunMS = 1 << 32

// TotalTasks returns the number of initially spawned tasks.
func (s Spec) TotalTasks() int {
	n := 0
	for _, g := range s.Workload {
		n += g.Count
	}
	return n
}

// CostMS estimates the lockstep reference cost in CPU-milliseconds
// (logical CPUs × run length) — the fuzz generator's run-length budget
// and the CLI's progress metric.
func (s Spec) CostMS() int64 {
	return int64(s.Topology.Layout().NumLogical()) * s.RunMS
}

// Hash returns a stable content hash of the machine the spec describes:
// sha256 over the canonical JSON with the metadata fields (Name, Note)
// and the run-length fields Build never reads (RunMS, Chunks) cleared,
// and the version normalized. Two specs with equal hashes build
// byte-identical machines; the esfarmd image cache keys on it.
func (s Spec) Hash() string {
	s.Version = SpecVersion
	s.Name = ""
	s.Note = ""
	s.RunMS = 0
	s.Chunks = 0
	data, err := json.Marshal(s)
	if err != nil {
		// Spec is a plain data struct; Marshal cannot fail on it.
		panic(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// WriteFile serializes the spec as indented JSON.
func (s Spec) WriteFile(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadFile reads a spec JSON file (e.g. a fuzz-corpus entry).
func LoadFile(path string) (Spec, error) {
	var s Spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Parse decodes a spec from JSON bytes (e.g. an esfarmd request body),
// rejecting unknown fields so schema typos fail loudly instead of
// silently building a different machine, a version it does not know,
// and anything after the spec object.
func Parse(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("scenario: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return s, fmt.Errorf("scenario: trailing data after the spec object")
	}
	if s.Version != 0 && s.Version != SpecVersion {
		return s, fmt.Errorf("scenario: spec version %d, want %d", s.Version, SpecVersion)
	}
	return s, nil
}
