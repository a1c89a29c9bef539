package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// TestSmoke runs both passes of every workload for two rounds and checks
// the output against BENCHMARK.json: every listed metric is emitted for
// every workload, finite and with its unit, nothing unlisted is emitted,
// and no check failed.
func TestSmoke(t *testing.T) {
	spec, err := loadBenchSpec()
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "result.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "all", "-rounds", "2", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.Bytes())
	}
	rep, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range spec.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		units[m.Name] = m.Unit
	}
	for _, wl := range spec.Workloads {
		r := rep.Workloads[wl.Name]
		if r == nil {
			t.Errorf("%s: no result", wl.Name)
			continue
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", wl.Name, r.Correct, r.Attempted, r.Failed)
		}
		for name, unit := range units {
			m, ok := r.Metrics[name]
			switch {
			case !ok:
				t.Errorf("%s: %s not emitted", wl.Name, name)
			case m.Unit != unit:
				t.Errorf("%s: %s has unit %q, want %q", wl.Name, name, m.Unit, unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s: %s = %v", wl.Name, name, m.Value)
			}
		}
		for name := range r.Metrics {
			if _, ok := units[name]; !ok {
				t.Errorf("%s: %s is emitted but not listed in BENCHMARK.json", wl.Name, name)
			}
		}
	}
	if t.Failed() {
		t.Logf("stderr:\n%s", stderr.Bytes())
	}
}

// TestResultLine checks the last output line of a single-workload run:
// exactly the four keys, and the end-to-end metrics with -trace 0, the
// per-layer ones with -trace 1.
func TestResultLine(t *testing.T) {
	spec, err := loadBenchSpec()
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layers []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	for trace, want := range map[string][]string{"0": e2e, "1": layers} {
		var stdout bytes.Buffer
		args := []string{"--workload", "thermal-dvfs-8", "--seed", "3", "--seconds", "1", "--trace", trace, "--rounds", "2"}
		if code := run(args, &stdout, io.Discard); code != 0 {
			t.Fatalf("trace %s: exit %d", trace, code)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
		var line map[string]json.RawMessage
		if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
			t.Fatalf("trace %s: last line: %v", trace, err)
		}
		var keys []string
		for k := range line {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
			t.Errorf("trace %s: keys %v", trace, keys)
		}
		var metrics map[string]metric
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		var got []string
		for k := range metrics {
			got = append(got, k)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !slices.Equal(got, want) {
			t.Errorf("trace %s: metrics %v, want %v", trace, got, want)
		}
	}
}
