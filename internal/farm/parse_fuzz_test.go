package farm

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzParseRequest feeds arbitrary bodies to ParseRequest and, when one
// decodes, to the checks a request passes before it runs (resolve: the
// version, the scenario, the window bounds, the seed count, the cost
// and Validate). Each stage must answer with an error, never a panic, a
// hang or an unbounded allocation, and a request that passes them all
// must be within its bounds. Seeded with TestParseRequestTrailingData's
// bodies, a catalog request and an inline scenario.
func FuzzParseRequest(f *testing.F) {
	f.Add([]byte(validRequestBody))
	f.Add([]byte(validRequestBody + "\n"))
	for _, body := range trailingDataBodies {
		f.Add([]byte(body))
	}
	f.Add([]byte(`{"version":1,"name":"engines/steady-state","warmup_ms":2000,"measure_ms":2000,"seeds":[3,1,4,1,5]}`))
	f.Add([]byte(`{"scenario":{"topology":{"nodes":1,"packages_per_node":2,"cores_per_package":1,"threads_per_core":1},"workload":[{"program":"bitcnts","count":2}]},"warmup_ms":200,"measure_ms":100,"seeds":[1]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := ParseRequest(body)
		if err != nil {
			return
		}
		spec, err := req.resolve()
		if err != nil {
			return
		}
		cpus := int64(spec.Topology.Layout().NumLogical())
		if len(req.Seeds) == 0 || len(req.Seeds) > maxSeeds || req.MeasureMS < 1 || !req.withinCost(cpus) {
			t.Fatalf("resolved a request out of bounds: %d seeds, measure %d ms, warm-up %d ms on %d CPUs",
				len(req.Seeds), req.MeasureMS, req.WarmupMS, cpus)
		}
	})
}

// FuzzParseSeeds feeds arbitrary seed lists to ParseSeeds. It must
// answer with an error, never a panic, a hang or more than maxSeeds
// seeds, and an accepted list must be non-empty and parse again, seed
// by seed, to itself. Seeded with TestParseSeeds' good and bad lists.
func FuzzParseSeeds(f *testing.F) {
	for _, s := range append([]string{"1,5,10-13", "18446744073709551613-18446744073709551615"}, badSeedLists...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		seeds, err := ParseSeeds(s)
		if err != nil {
			return
		}
		if len(seeds) == 0 || len(seeds) > maxSeeds {
			t.Fatalf("ParseSeeds(%q) returned %d seeds", s, len(seeds))
		}
		if len(seeds) > 1000 {
			return // the round trip below is for short lists
		}
		parts := make([]string, len(seeds))
		for i, v := range seeds {
			parts[i] = strconv.FormatUint(v, 10)
		}
		again, err := ParseSeeds(strings.Join(parts, ","))
		if err != nil || len(again) != len(seeds) {
			t.Fatalf("ParseSeeds(%q) = %v, which parses again to %v, %v", s, seeds, again, err)
		}
		for i := range seeds {
			if again[i] != seeds[i] {
				t.Fatalf("ParseSeeds(%q) = %v, which parses again to %v", s, seeds, again)
			}
		}
	})
}
