package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the command reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadBenchSpec reads BENCHMARK.json from the repository root, which is
// the working directory under bench/run.sh and the parent directory
// under go run or go test in bench/.
func loadBenchSpec() (*benchSpec, error) {
	var data []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err = os.ReadFile(path)
		if !errors.Is(err, fs.ErrNotExist) {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// runDiff compares two -out files, A the base and B the candidate: for
// every end-to-end metric × workload it prints both values, the relative
// delta and the bound, and it fails when a delta in either direction is
// outside its bound, when an exact-repeat count differs, or when either
// side failed a check.
func runDiff(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench -diff A.json B.json")
		return 2
	}
	spec, err := loadBenchSpec()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	a, err := readReport(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readReport(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if a.Seed != b.Seed {
		fmt.Fprintf(stderr, "bench: seeds differ (%d vs %d): the inputs are not the same\n", a.Seed, b.Seed)
		return 2
	}

	bad := 0
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tdelta\tbound\tverdict\t")
	for _, wl := range spec.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			fmt.Fprintf(tw, "%s\t(missing)\t\t\t\t\tFAIL\t\n", wl.Name)
			bad++
			continue
		}
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(tw, "%s\tcorrect\t%v\t%v\t\t\tFAIL\t\n", wl.Name, ra.Correct, rb.Correct)
			bad++
		}
		for _, e := range spec.EndToEnd {
			ma, okA := ra.Metrics[e.Name]
			mb, okB := rb.Metrics[e.Name]
			if !okA || !okB || ma.Value == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t\t%.0f%%\tFAIL\t\n", wl.Name, e.Name, fmtMetric(ma, okA), fmtMetric(mb, okB), e.Bound*100)
				bad++
				continue
			}
			delta := (mb.Value - ma.Value) / ma.Value
			verdict := "ok"
			if math.Abs(delta) > e.Bound {
				verdict = "FAIL better"
				if (delta > 0) == (e.Better == "lower") {
					verdict = "FAIL worse"
				}
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\t\n", wl.Name, e.Name, ma.Value, mb.Value, delta*100, e.Bound*100, verdict)
		}
		same, differ := 0, 0
		for name, ma := range ra.Metrics {
			if !ma.Exact {
				continue
			}
			if mb, ok := rb.Metrics[name]; ok && mb.Value == ma.Value {
				same++
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%.10g\t%s\t\texact\tFAIL\t\n", wl.Name, name, ma.Value, fmtMetric(rb.Metrics[name], rb.Metrics[name].Unit != ""))
			differ++
		}
		bad += differ
		fmt.Fprintf(tw, "%s\texact-repeat counts\t%d\tequal\t\t\t%s\t\n", wl.Name, same, map[bool]string{true: "ok", false: "FAIL"}[differ == 0])
	}
	tw.Flush()
	if bad > 0 {
		fmt.Fprintf(stdout, "%d comparisons outside their bounds\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "all comparisons within their bounds")
	return 0
}

func fmtMetric(m metric, ok bool) string {
	if !ok {
		return "(missing)"
	}
	return fmt.Sprintf("%.6g", m.Value)
}
