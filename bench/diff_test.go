package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestDiff(t *testing.T) {
	spec, err := loadBenchSpec()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// write saves a report whose end-to-end metrics are all 100·scale and
	// whose one exact-repeat count is count.
	write := func(name string, scale, count float64) string {
		rep := report{Seed: 1, Workloads: map[string]*result{}}
		for _, wl := range spec.Workloads {
			r := &result{Correct: true, Attempted: 1, Metrics: map[string]metric{}}
			for _, m := range spec.EndToEnd {
				r.Metrics[m.Name] = metric{Value: 100 * scale, Unit: m.Unit}
			}
			r.Metrics["sched.dispatch"] = metric{Value: count, Unit: "1/sim_s", Exact: true}
			rep.Workloads[wl.Name] = r
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", 1, 42)
	for _, tc := range []struct {
		name         string
		scale, count float64
		want         int
	}{
		{"same", 1, 42, 0},
		{"within bounds", 1.05, 42, 0},  // every bound is at least 10%
		{"outside bounds", 1.30, 42, 1}, // every bound is at most 25%
		{"count differs", 1, 43, 1},
	} {
		b := write(tc.name+".json", tc.scale, tc.count)
		if got := runDiff([]string{a, b}, io.Discard, io.Discard); got != tc.want {
			t.Errorf("%s: exit %d, want %d", tc.name, got, tc.want)
		}
	}
}
