// Package farm is the esfarmd simulation service: an HTTP/JSON daemon
// that runs seed sweeps of shared scenarios and streams results. A
// sweep request names (or inlines) a scenario, a warm-up length, a
// measurement window, and a seed list; the daemon warms the
// scenario once, caches the checkpoint image by content, and measures
// every seed on an in-memory branch of the restored template — so a
// thousand-seed sweep pays for one warm-up, and repeated sweeps of the
// same scenario pay for none.
//
// Results stream back as NDJSON in seed order: one header object,
// then one experiments.SeedRow per seed, then (only on failure) an
// error object. Rows are byte-identical to the direct, daemon-less
// execution of the same request (Server.Direct) and to the
// rebuild-per-seed reference (RunConfig.SeedSweepRebuild) — the CI
// smoke test diffs the first pair, TestSweepMatchesExperiments the
// second.
//
// Every sweep runs on the default async engine. The request schema has
// no engine field: the engines are byte-identical by construction, so
// choosing one could only pick a slower way to the same rows, and a
// request that names one is rejected as an unknown field.
package farm

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"energysched/internal/scenario"
)

// RequestVersion is the current sweep-request schema version. Requests
// with Version 0 are read as current; newer versions are rejected.
const RequestVersion = 1

// SweepRequest is the body of POST /v1/sweep. Exactly one of Name
// (a scenario.Names catalog entry) or Scenario (an inline spec) must
// be set. There is no engine field: every sweep runs on the default
// async engine, and ParseRequest rejects a body that names one.
type SweepRequest struct {
	// Version is the request schema version; 0 reads as RequestVersion.
	Version int `json:"version,omitempty"`
	// Name selects a catalog scenario (see GET /v1/scenarios).
	Name string `json:"name,omitempty"`
	// Scenario is an inline scenario spec.
	Scenario *scenario.Spec `json:"scenario,omitempty"`
	// WarmupMS is simulated once and shared by every seed.
	WarmupMS int64 `json:"warmup_ms"`
	// MeasureMS is the per-seed measurement window.
	MeasureMS int64 `json:"measure_ms"`
	// Seeds are the divergence seeds; rows stream back in this order.
	Seeds []uint64 `json:"seeds"`
}

// Header is the first NDJSON object of a sweep response.
type Header struct {
	Version int `json:"version"`
	// ScenarioHash is the content hash of the resolved scenario (the
	// image-cache key component).
	ScenarioHash string `json:"scenario_hash"`
	// Engine names the simulation engine the rows ran on; always
	// "async".
	Engine    string `json:"engine"`
	WarmupMS  int64  `json:"warmup_ms"`
	MeasureMS int64  `json:"measure_ms"`
	Seeds     int    `json:"seeds"`
}

// ErrorLine is the trailing NDJSON object of a failed sweep.
type ErrorLine struct {
	Error string `json:"error"`
}

// resolve validates the request and returns the scenario it names.
func (r *SweepRequest) resolve() (scenario.Spec, error) {
	var spec scenario.Spec
	if r.Version != 0 && r.Version != RequestVersion {
		return spec, fmt.Errorf("farm: request version %d, want %d", r.Version, RequestVersion)
	}
	switch {
	case r.Name != "" && r.Scenario != nil:
		return spec, fmt.Errorf("farm: request sets both name and scenario")
	case r.Name != "":
		s, err := scenario.Named(r.Name)
		if err != nil {
			return spec, err
		}
		spec = s
	case r.Scenario != nil:
		spec = *r.Scenario
	default:
		return spec, fmt.Errorf("farm: request sets neither name nor scenario")
	}
	// Both windows are bounded before anything adds or multiplies them.
	if r.WarmupMS < 0 || r.WarmupMS > scenario.MaxRunMS {
		return spec, fmt.Errorf("farm: warmup_ms %d out of range", r.WarmupMS)
	}
	if r.MeasureMS < 1 || r.MeasureMS > scenario.MaxRunMS {
		return spec, fmt.Errorf("farm: measure_ms %d out of range", r.MeasureMS)
	}
	if len(r.Seeds) == 0 {
		return spec, fmt.Errorf("farm: empty seed list")
	}
	if len(r.Seeds) > maxSeeds {
		return spec, fmt.Errorf("farm: %d seeds exceeds the %d-seed request limit", len(r.Seeds), maxSeeds)
	}
	if r.Scenario != nil && spec.RunMS == 0 {
		// The sweep's run length is warmup+measure; the spec's own
		// RunMS is unused, so let inline requests omit it.
		spec.RunMS = r.WarmupMS + r.MeasureMS
	}
	layout := spec.Topology.Layout()
	if err := layout.Validate(); err != nil {
		return spec, err
	}
	// Price the request before Validate builds a machine.
	if !r.withinCost(int64(layout.NumLogical())) {
		return spec, fmt.Errorf("farm: request costs more than %d CPU-ms (logical CPUs × (warmup_ms + seeds × measure_ms))", MaxRequestCostMS)
	}
	if err := spec.Validate(); err != nil {
		return spec, err
	}
	return spec, nil
}

// MaxRequestCostMS bounds one request's simulated work in CPU-ms:
// logical CPUs × (warm-up + seeds × measurement window). The farm has
// no way to cancel a sweep once it runs, so this is what keeps one
// request from running for an unbounded time. It admits a 1024-CPU
// sweep of 100 one-minute seeds after a one-minute warm-up.
const MaxRequestCostMS = 10_000_000_000

// withinCost reports whether cpus × (WarmupMS + len(Seeds) × MeasureMS)
// stays within MaxRequestCostMS. The windows must already be in range
// (MeasureMS ≥ 1); the comparison divides instead of multiplying, so it
// cannot overflow.
func (r *SweepRequest) withinCost(cpus int64) bool {
	perCPU := MaxRequestCostMS / cpus
	if r.WarmupMS > perCPU {
		return false
	}
	return int64(len(r.Seeds)) <= (perCPU-r.WarmupMS)/r.MeasureMS
}

// maxSeeds bounds one request's fan-out.
const maxSeeds = 1 << 20

// cacheKey is the image-cache identity: everything the warm image's
// bytes depend on.
func cacheKey(spec scenario.Spec, warmupMS int64) string {
	return spec.Hash() + "|" + strconv.FormatInt(warmupMS, 10)
}

// ParseSeeds parses a CLI seed list: comma-separated entries, each a
// single integer or an inclusive lo-hi range ("1,5,10-20").
func ParseSeeds(s string) ([]uint64, error) {
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err1 := strconv.ParseUint(lo, 10, 64)
			b, err2 := strconv.ParseUint(hi, 10, 64)
			if err1 != nil || err2 != nil || a > b {
				return nil, fmt.Errorf("farm: bad seed range %q", part)
			}
			if b-a >= maxSeeds || len(out)+int(b-a) >= maxSeeds {
				return nil, fmt.Errorf("farm: seed range %q exceeds the %d-seed limit", part, maxSeeds)
			}
			for v := a; ; v++ {
				out = append(out, v)
				if v == b {
					break // not v <= b: at b = MaxUint64, v would wrap
				}
			}
		} else {
			v, err := strconv.ParseUint(part, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("farm: bad seed %q", part)
			}
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("farm: empty seed list %q", s)
	}
	return out, nil
}

// ScenarioNames lists the catalog scenarios a request's Name may
// reference.
func ScenarioNames() []string {
	names := scenario.Names()
	sort.Strings(names)
	return names
}
