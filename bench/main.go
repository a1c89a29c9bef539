// Command bench is the energysched repository benchmark. It drives one
// workload — three simulation workloads through internal/scenario and
// internal/machine, and a sweep workload through internal/farm over one
// loopback HTTP connection — checks every output, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": V, "unit": U}, ...}}
//
// With -trace 0 the metrics are the end-to-end metrics of an untraced
// timed pass; with -trace 1 they are the per-layer metrics of a traced
// pass. BENCHMARK.json at the repository root lists both sets, and
// README.md explains the workloads and the estimators.
//
// Usage:
//
//	bench -workload NAME -seed N -seconds S -trace 0|1 [-out FILE]
//	bench -workload all  -seed N -seconds S -out FILE   (both passes of every workload)
//	bench -diff A.json B.json
//
// bench/run.sh builds the command and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runCtx carries the pacing flags of one invocation.
type runCtx struct {
	seconds float64
	rounds  int
}

// pacer ends a pass's round loop: after exactly -rounds rounds when that
// flag is set, otherwise once -seconds have passed and at least
// minRounds rounds ran.
type pacer struct {
	rounds, minRounds int
	deadline          time.Time
}

func (c *runCtx) pacer(minRounds int) pacer {
	return pacer{
		rounds:    c.rounds,
		minRounds: minRounds,
		deadline:  time.Now().Add(time.Duration(c.seconds * float64(time.Second))),
	}
}

func (p pacer) more(i int) bool {
	if p.rounds > 0 {
		return i < p.rounds
	}
	return i < p.minRounds || time.Now().Before(p.deadline)
}

// metric is one reported number. N, LowSample and Exact go to the -out
// file only; the result line carries value and unit. Exact marks a work
// count or size that the deterministic simulation reproduces bit for bit
// for one seed: a change that only makes the program faster leaves it
// equal.
type metric struct {
	Value     float64 `json:"value"`
	Unit      string  `json:"unit"`
	N         int     `json:"n,omitempty"`
	LowSample bool    `json:"low_sample,omitempty"`
	Exact     bool    `json:"exact,omitempty"`
}

// result is one workload's outcome: its checked operations and metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	log io.Writer
}

func newResult(log io.Writer) *result {
	return &result{Metrics: map[string]metric{}, log: log}
}

// check counts one attempted operation, failed when err is non-nil.
func (r *result) check(what string, err error) bool {
	r.Attempted++
	if err != nil {
		r.Failed++
		fmt.Fprintf(r.log, "bench: FAILED %s: %v\n", what, err)
		return false
	}
	return true
}

// set records a statistic with its sample count.
func (r *result) set(name, unit string, e estimate) {
	r.Metrics[name] = metric{Value: e.Value, Unit: unit, N: e.N, LowSample: e.lowSample()}
}

// setValue records a number computed once rather than sampled.
func (r *result) setValue(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit, N: 1}
}

// setExact records an exact-repeat count or size.
func (r *result) setExact(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit, N: 1, Exact: true}
}

// merge folds another pass's outcome into r.
func (r *result) merge(o *result) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	for k, v := range o.Metrics {
		r.Metrics[k] = v
	}
}

// report is the -out file: the invocation's settings and each
// workload's result.
type report struct {
	GoVersion  string             `json:"go_version"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Seed       uint64             `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Rounds     int                `json:"rounds,omitempty"`
	Workloads  map[string]*result `json:"workloads"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all (both passes of each)")
	seed := fs.Uint64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 20, "measured seconds per pass")
	traced := fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	rounds := fs.Int("rounds", 0, "run exactly this many rounds per pass, ignoring -seconds")
	out := fs.String("out", "", "also write the full result, with sample counts, to this JSON file")
	diff := fs.Bool("diff", false, "compare two -out files: bench -diff A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *diff {
		return runDiff(fs.Args(), stdout, stderr)
	}
	if fs.NArg() != 0 || *name == "" || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "usage: bench -workload NAME -seed N -seconds S -trace 0|1 [-out FILE] | bench -diff A.json B.json")
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	c := &runCtx{seconds: *seconds, rounds: *rounds}
	rep := report{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       *seed,
		Seconds:    *seconds,
		Rounds:     *rounds,
		Workloads:  map[string]*result{},
	}
	for _, n := range names {
		w, err := newWorkload(n, *seed)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		r := newResult(stderr)
		r.check("lockstep equivalence", w.checkEngines())
		if *name == "all" || *traced == 0 {
			err = timedPass(c, w, r)
		}
		if err == nil && (*name == "all" || *traced == 1) {
			t := newResult(stderr)
			err = tracedPass(c, w, t)
			r.merge(t)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", n, err)
			return 1
		}
		r.Correct = r.Failed == 0
		rep.Workloads[n] = r
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return printResult(stdout, stderr, rep, names)
}

// printResult writes a table of every metric and then the result line.
// With several workloads the line's metric names are prefixed by the
// workload's.
func printResult(stdout, stderr io.Writer, rep report, names []string) int {
	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: true, Metrics: map[string]map[string]any{}}
	for _, n := range names {
		r := rep.Workloads[n]
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			m := r.Metrics[k]
			flag := ""
			if m.LowSample {
				flag = " low_sample"
			}
			fmt.Fprintf(stdout, "%-15s %-36s %16.6g %-9s n=%d%s\n", n, k, m.Value, m.Unit, m.N, flag)
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				fmt.Fprintf(stderr, "bench: %s %s is not finite\n", n, k)
				return 1
			}
			key := k
			if len(names) > 1 {
				key = n + "/" + k
			}
			line.Metrics[key] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	return 0
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// liveHeap returns the heap the program retains. The second collection
// empties the sync.Pool victim caches the first one filled.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// retainedMiB returns the live heap, in MiB, that the value mk builds
// retains: the least of three builds, since a one-off runtime allocation
// (a goroutine record, a grown table) can land in any one of them. Run
// it after the workload's first build, so process-wide caches such as
// gob and JSON type information are already filled.
func retainedMiB(mk func() (any, error)) (float64, error) {
	best := math.Inf(1)
	for range 3 {
		base := liveHeap()
		v, err := mk()
		if err != nil {
			return 0, err
		}
		best = min(best, float64(int64(liveHeap())-int64(base))/(1<<20))
		runtime.KeepAlive(v)
	}
	return best, nil
}
