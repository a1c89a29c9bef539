// Command esbench records the repository's performance trajectory: it
// runs the simulation-engine benchmarks — the exact scenario set of
// BenchmarkEngines and BenchmarkLargeTopology, shared via
// internal/machine/benchscen — against every engine and writes the
// results as a JSON document, one file per day:
//
//	BENCH_2026-01-31.json
//
// Committing the file after perf-relevant changes gives the repo a
// reviewable ns/op history; CI runs the one-iteration smoke variant on
// every push and uploads the JSON as an artifact.
//
// Usage:
//
//	esbench [-quick] [-time 1s] [-out FILE] [-engines lockstep,async,parallel]
//	        [-compare BASELINE.json] [-threshold 15] [-trend DIR]
//
// -quick runs every benchmark for a single iteration (the CI smoke
// mode); otherwise each benchmark repeats until -time has elapsed.
//
// -compare loads a committed BENCH_*.json, prints the per-benchmark
// ns/op delta of this run against it, and exits nonzero when any
// benchmark present in both regressed by more than -threshold percent —
// the CI bench gate. Benchmarks only on one side are reported but never
// gate.
//
// -trend loads every committed BENCH_*.json in DIR (sorted by date) and
// prints, per benchmark, this run's ns/op delta against the trend tail
// (the newest baseline) and against the oldest — the cumulative column
// catches sub-threshold drift that never trips the per-PR -compare gate
// but compounds across PRs. Informational only; it never fails the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"energysched/internal/cliflags"
	"energysched/internal/experiments"
	"energysched/internal/machine"
	"energysched/internal/machine/benchscen"
	"energysched/internal/scenario"
)

// Result is one benchmark measurement.
type Result struct {
	Name string `json:"name"`
	// Engine is the simulation engine the benchmark ran on.
	Engine string `json:"engine"`
	// Iterations is the number of timed simulation chunks.
	Iterations int `json:"iterations"`
	// NsPerOp is wall nanoseconds per simulated chunk.
	NsPerOp float64 `json:"ns_per_op"`
	// SimChunkMS is the simulated milliseconds per chunk.
	SimChunkMS int64 `json:"sim_chunk_ms"`
	// CPUMSPerS is simulated CPU-milliseconds per wall second — the
	// throughput metric the engine benchmarks report.
	CPUMSPerS float64 `json:"cpu_ms_per_s"`
	// SpeedupVsRebuild is set only on the farm/warm-branch row: wall
	// time of the rebuild-per-seed sweep over the warm-branched sweep.
	SpeedupVsRebuild float64 `json:"speedup_vs_rebuild,omitempty"`
}

// Report is the document esbench writes. GitSHA, GoVersion, and the
// per-benchmark Engine make every record in the committed perf
// trajectory attributable: which revision, which toolchain, which
// simulation core produced the number.
type Report struct {
	Date       string   `json:"date"`
	GitSHA     string   `json:"git_sha,omitempty"`
	GoVersion  string   `json:"go_version"`
	GOARCH     string   `json:"goarch"`
	Quick      bool     `json:"quick"`
	Benchmarks []Result `json:"benchmarks"`
}

// gitSHA returns the revision of the benchmarked code (plus a "-dirty"
// suffix for a modified tree), or "" when unknown. The binary's own
// embedded VCS stamp is preferred — it names the revision the code was
// actually built from; the git subprocess fallback (go run strips the
// stamp) resolves against the working directory, which for a
// benchmarking run is the checkout under test.
func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			if len(rev) > 12 {
				rev = rev[:12]
			}
			return rev + dirty
		}
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return ""
	}
	sha := strings.TrimSpace(string(out))
	// -uno: tracked changes only (vcs.modified semantics) — esbench's
	// own untracked BENCH_*.json output must not dirty later runs.
	if dirty, err := exec.Command("git", "status", "--porcelain", "-uno").Output(); err == nil && len(dirty) > 0 {
		sha += "-dirty"
	}
	return sha
}

// measure runs one scenario on one engine: warm up, then repeat timed
// chunks until minTime has elapsed (at least once).
func measure(sc benchscen.Scenario, e machine.Engine, minTime time.Duration) Result {
	m := sc.New(e)
	m.Run(sc.WarmupMS)
	nCPU := float64(m.Cfg.Layout.NumLogical())
	iters := 0
	var elapsed time.Duration
	start := time.Now()
	for elapsed < minTime || iters == 0 {
		m.Run(sc.SimChunkMS)
		iters++
		elapsed = time.Since(start)
	}
	return Result{
		Name:       sc.Name,
		Engine:     e.String(),
		Iterations: iters,
		NsPerOp:    float64(elapsed.Nanoseconds()) / float64(iters),
		SimChunkMS: sc.SimChunkMS,
		CPUMSPerS:  float64(iters) * float64(sc.SimChunkMS) * nCPU / elapsed.Seconds(),
	}
}

// measureWarmBranch times the checkpoint-branched seed sweep against
// the rebuild-per-seed plan it replaces (see experiments.SeedSweep /
// SeedSweepRebuild): rebuild pays seeds×(warmup+measure) of simulation,
// warm-branch pays warmup once plus seeds×measure. The row's ns/op is
// the warm sweep's wall time per seed; SpeedupVsRebuild records the
// amortization the farm's image cache banks on. Sequential (Jobs=1) so
// the two plans compare simulation work, not pool scheduling; the
// default engine, like a farm request that names none.
func measureWarmBranch(minTime time.Duration) Result {
	const (
		warmupMS  = 5_000
		measureMS = 2_000
		nSeeds    = 8
	)
	spec := scenario.MustNamed("engines/steady-state")
	rc := experiments.RunConfig{Jobs: 1}
	seeds := make([]uint64, nSeeds)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	run := func(f func() error) time.Duration {
		start := time.Now()
		if err := f(); err != nil {
			fmt.Fprintln(os.Stderr, "esbench: farm/warm-branch:", err)
			os.Exit(1)
		}
		return time.Since(start)
	}
	iters := 0
	var rebuild, warm time.Duration
	start := time.Now()
	for time.Since(start) < minTime || iters == 0 {
		rebuild += run(func() error { _, err := rc.SeedSweepRebuild(spec, warmupMS, measureMS, seeds); return err })
		warm += run(func() error { _, err := rc.SeedSweep(spec, warmupMS, measureMS, seeds); return err })
		iters++
	}
	nCPU := float64(spec.Topology.Layout().NumLogical())
	return Result{
		Name:             "farm/warm-branch",
		Engine:           rc.Engine.String(),
		Iterations:       iters * nSeeds,
		NsPerOp:          float64(warm.Nanoseconds()) / float64(iters*nSeeds),
		SimChunkMS:       measureMS,
		CPUMSPerS:        float64(iters) * (warmupMS + nSeeds*measureMS) * nCPU / warm.Seconds(),
		SpeedupVsRebuild: float64(rebuild) / float64(warm),
	}
}

// loadBaseline reads a committed BENCH_*.json document.
func loadBaseline(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// pctDelta returns the percentage change from base to cur and whether
// the percentage is defined: a zero or negative base ns/op — a
// truncated or hand-edited baseline row — has no meaningful delta, and
// feeding it to the gate would produce a NaN that silently compares
// false against every threshold.
func pctDelta(base, cur float64) (float64, bool) {
	if base <= 0 {
		return 0, false
	}
	return (cur - base) / base * 100, true
}

// compare prints the per-benchmark ns/op deltas of cur against base and
// returns the number of benchmarks that regressed by more than
// thresholdPct. Matching is by (name, engine); benchmarks present in
// only one of the two reports are printed as "new" / "gone" rows so a
// renamed or dropped scenario is visible in the gate output, but they
// never gate — there is nothing to compare them against. Rows that
// cannot be compared (zero-ns/op baseline) and duplicated keys (the
// first occurrence wins on both sides — a duplicate row means a
// corrupted or concatenated report) are likewise visible but non-gating.
func compare(w io.Writer, base, cur *Report, thresholdPct float64) (regressions int) {
	type key struct{ name, engine string }
	baseBy := make(map[key]Result, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		k := key{r.Name, r.Engine}
		if _, dup := baseBy[k]; !dup {
			baseBy[k] = r
		}
	}
	fmt.Fprintf(w, "bench gate: current (%s) vs baseline %s (%s), threshold +%.0f%% ns/op\n",
		cur.GitSHA, base.Date, base.GitSHA, thresholdPct)
	fmt.Fprintf(w, "%-28s %-9s %14s %14s %8s\n", "benchmark", "engine", "base ns/op", "cur ns/op", "delta")
	seen := make(map[key]bool, len(cur.Benchmarks))
	for _, r := range cur.Benchmarks {
		k := key{r.Name, r.Engine}
		if seen[k] {
			fmt.Fprintf(w, "%-28s %-9s %14s %14.0f %8s\n", r.Name, r.Engine, "-", r.NsPerOp, "dup")
			continue
		}
		seen[k] = true
		b, ok := baseBy[k]
		if !ok {
			fmt.Fprintf(w, "%-28s %-9s %14s %14.0f %8s\n", r.Name, r.Engine, "-", r.NsPerOp, "new")
			continue
		}
		delta, ok := pctDelta(b.NsPerOp, r.NsPerOp)
		if !ok {
			fmt.Fprintf(w, "%-28s %-9s %14.0f %14.0f %8s\n", r.Name, r.Engine, b.NsPerOp, r.NsPerOp, "n/a")
			continue
		}
		verdict := ""
		if delta > thresholdPct {
			verdict = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-28s %-9s %14.0f %14.0f %+7.1f%%%s\n", r.Name, r.Engine, b.NsPerOp, r.NsPerOp, delta, verdict)
	}
	for _, b := range base.Benchmarks {
		if !seen[key{b.Name, b.Engine}] {
			fmt.Fprintf(w, "%-28s %-9s %14.0f %14s %8s\n", b.Name, b.Engine, b.NsPerOp, "-", "gone")
		}
	}
	return regressions
}

// loadTrend reads every BENCH_*.json under dir, sorted by filename —
// the date-stamped naming scheme makes that chronological. The report
// at skipPath (the file this run just wrote) is excluded so a default
// -out into the same directory does not compare the run against
// itself.
func loadTrend(dir, skipPath string) ([]*Report, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	skip, _ := filepath.Abs(skipPath)
	var series []*Report
	for _, p := range paths {
		if abs, _ := filepath.Abs(p); abs == skip {
			continue
		}
		rep, err := loadBaseline(p)
		if err != nil {
			return nil, err
		}
		series = append(series, rep)
	}
	return series, nil
}

// trend prints, for every benchmark of cur, its ns/op against the
// committed baseline series: the oldest and newest (tail) baselines
// that recorded it, the delta vs the tail, and the cumulative delta vs
// the oldest. Per-PR gates only see one hop; the cumulative column is
// where a few-percent-per-PR drift becomes visible. Purely
// informational — baselines come from different machines and days, so
// no threshold is applied.
func trend(w io.Writer, series []*Report, cur *Report) {
	if len(series) == 0 {
		fmt.Fprintln(w, "bench trend: no committed BENCH_*.json baselines found")
		return
	}
	type key struct{ name, engine string }
	type hist struct {
		oldest, tail      Result
		oldDate, tailDate string
		n                 int
	}
	byKey := make(map[key]*hist)
	for _, rep := range series {
		repSeen := make(map[key]bool, len(rep.Benchmarks))
		for _, r := range rep.Benchmarks {
			k := key{r.Name, r.Engine}
			if repSeen[k] {
				continue // duplicate row in one report: first wins
			}
			repSeen[k] = true
			h, ok := byKey[k]
			if !ok {
				h = &hist{oldest: r, oldDate: rep.Date}
				byKey[k] = h
			}
			h.tail, h.tailDate = r, rep.Date
			h.n++
		}
	}
	fmt.Fprintf(w, "bench trend: %d baseline(s), %s .. %s, current %s\n",
		len(series), series[0].Date, series[len(series)-1].Date, cur.GitSHA)
	fmt.Fprintf(w, "%-28s %-9s %3s %14s %14s %14s %9s %9s\n",
		"benchmark", "engine", "n", "oldest ns/op", "tail ns/op", "cur ns/op", "vs tail", "vs oldest")
	for _, r := range cur.Benchmarks {
		h, ok := byKey[key{r.Name, r.Engine}]
		if !ok {
			fmt.Fprintf(w, "%-28s %-9s %3d %14s %14s %14.0f %9s %9s\n",
				r.Name, r.Engine, 0, "-", "-", r.NsPerOp, "new", "new")
			continue
		}
		// A zero-ns/op baseline row (truncated or hand-edited report)
		// yields no percentage; print the column as n/a instead of NaN.
		fmtPct := func(base float64) string {
			d, ok := pctDelta(base, r.NsPerOp)
			if !ok {
				return "n/a"
			}
			return fmt.Sprintf("%+.1f%%", d)
		}
		fmt.Fprintf(w, "%-28s %-9s %3d %14.0f %14.0f %14.0f %9s %9s\n",
			r.Name, r.Engine, h.n, h.oldest.NsPerOp, h.tail.NsPerOp, r.NsPerOp,
			fmtPct(h.tail.NsPerOp), fmtPct(h.oldest.NsPerOp))
	}
}

func main() {
	quick := flag.Bool("quick", false, "single iteration per benchmark (CI smoke)")
	minTime := flag.Duration("time", time.Second, "minimum measuring time per benchmark")
	out := flag.String("out", "", "output file (default BENCH_<date>.json)")
	engines := cliflags.Engines(nil)
	compareTo := flag.String("compare", "", "baseline BENCH_*.json to gate this run against")
	threshold := flag.Float64("threshold", 15, "ns/op regression percentage that fails the -compare gate")
	trendDir := flag.String("trend", "", "directory of committed BENCH_*.json files to print drift against")
	flag.Parse()

	mt := *minTime
	if *quick {
		mt = 0 // one iteration
	}

	date := time.Now().UTC().Format("2006-01-02")
	rep := Report{
		Date:      date,
		GitSHA:    gitSHA(),
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		Quick:     *quick,
	}
	for _, sc := range benchscen.All() {
		for _, e := range *engines {
			if sc.Skips(e) {
				continue
			}
			r := measure(sc, e, mt)
			rep.Benchmarks = append(rep.Benchmarks, r)
			fmt.Fprintf(os.Stderr, "%-28s %-9s %3d iters  %12.0f ns/op  %14.0f cpu-ms/s\n",
				r.Name, r.Engine, r.Iterations, r.NsPerOp, r.CPUMSPerS)
		}
	}
	{
		r := measureWarmBranch(mt)
		rep.Benchmarks = append(rep.Benchmarks, r)
		fmt.Fprintf(os.Stderr, "%-28s %-9s %3d iters  %12.0f ns/op  %6.2fx vs rebuild\n",
			r.Name, r.Engine, r.Iterations, r.NsPerOp, r.SpeedupVsRebuild)
	}

	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", date)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "esbench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "esbench:", err)
		os.Exit(1)
	}

	if *trendDir != "" {
		series, err := loadTrend(*trendDir, path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "esbench:", err)
			os.Exit(2)
		}
		trend(os.Stdout, series, &rep)
	}
	if *compareTo != "" {
		base, err := loadBaseline(*compareTo)
		if err != nil {
			fmt.Fprintln(os.Stderr, "esbench:", err)
			os.Exit(2)
		}
		if n := compare(os.Stdout, base, &rep, *threshold); n > 0 {
			fmt.Fprintf(os.Stderr, "esbench: %d benchmark(s) regressed more than %.0f%%\n", n, *threshold)
			os.Exit(1)
		}
		fmt.Println("bench gate: PASS")
	}
	fmt.Println(path)
}
