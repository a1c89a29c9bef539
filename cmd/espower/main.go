// Command espower runs the reproduction experiments of "Balancing Power
// Consumption in Multiprocessor Systems" (Merkel & Bellosa, EuroSys
// 2006) and prints the paper's tables and figures.
//
// Usage:
//
//	espower <experiment> [flags]
//
// Experiments:
//
//	table1      per-timeslice power variability of the test programs
//	table2      power consumption of the test programs
//	table3      CPU throttling percentages and throughput (§6.2)
//	fig3        temperature vs power vs thermal power
//	fig6        thermal power of 8 CPUs, energy balancing disabled
//	fig7        thermal power of 8 CPUs, energy balancing enabled
//	fig8        throughput gain vs workload homogeneity (§6.3)
//	fig9        hot task migration trace of a single task (§6.4)
//	fig10       throughput gain vs number of hot tasks (§6.4)
//	hotspeed    execution-time reduction from hot task migration (§6.4)
//	migrations  migration counts of the §6.1 runs
//	ablation    §4.3 balancer-metric + §4.6 placement ablations
//	policies    CPU vs hot-task throttling vs migration (§2.3)
//	units       §7 functional-unit (multiple-temperature) extension
//	dvfs        DVFS governors vs hlt throttling: energy, makespan,
//	            peak temperature, halted vs downclocked fractions
//	misestimate estimator mis-calibration ablation: trusting bad
//	            weights blindly vs recalibration vs fallback throttling
//	sweeps      sensitivity sweeps for the unpublished tuning constants
//	cmp         §7 chip-multiprocessor extension
//	all         everything above, full length
//
// Flags:
//
//	-seed N      random seed (default 2006)
//	-quick       shortened runs (~4× faster, noisier)
//	-csv         emit raw series as CSV instead of ASCII charts
//	-governor G  DVFS governor highlighted by the dvfs experiment:
//	             performance, ondemand (default), or thermal
//	-j N         worker goroutines for independent experiment runs
//	             (default GOMAXPROCS; 1 forces sequential). Results are
//	             byte-identical for every N — each run is seeded from
//	             its index and aggregated in order.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"energysched/internal/dvfs"
	"energysched/internal/experiments"
	"energysched/internal/stats"
	"energysched/internal/textplot"
)

func main() {
	seed := flag.Uint64("seed", 2006, "random seed")
	quick := flag.Bool("quick", false, "shortened runs")
	csv := flag.Bool("csv", false, "emit raw CSV series")
	governor := "ondemand"
	flag.Func("governor", "DVFS governor for the dvfs experiment: "+strings.Join(dvfs.GovernorNames(), ", ")+" (default ondemand)",
		func(s string) (err error) {
			governor, err = dvfs.ParseGovernor(s)
			return err
		})
	jobs := flag.Int("j", 0, "worker goroutines for independent runs (0 = GOMAXPROCS, 1 = sequential)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	cmd := flag.Arg(0)
	r := runner{
		rc:       experiments.RunConfig{Jobs: *jobs},
		seed:     *seed,
		quick:    *quick,
		csv:      *csv,
		governor: governor,
	}
	if !r.run(cmd) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: espower [-seed N] [-quick] [-csv] [-governor G] [-j N] <experiment>")
	fmt.Fprintln(os.Stderr, "experiments: table1 table2 table3 fig3 fig6 fig7 fig8 fig9 fig10 hotspeed migrations ablation cmp policies units dvfs misestimate sweeps all")
}

type runner struct {
	rc       experiments.RunConfig
	seed     uint64
	quick    bool
	csv      bool
	governor string
}

// fail aborts on an experiment error (e.g. a calibration failure).
func fail(err error) {
	fmt.Fprintln(os.Stderr, "espower:", err)
	os.Exit(1)
}

// scale shortens durations in quick mode.
func (r runner) scale(ms int64) int64 {
	if r.quick {
		return ms / 4
	}
	return ms
}

func (r runner) run(cmd string) bool {
	switch cmd {
	case "table1":
		slices := 800
		if r.quick {
			slices = 300
		}
		fmt.Print(experiments.FormatTable1(experiments.Table1(r.seed, slices)))
	case "table2":
		rows, err := experiments.Table2(r.seed, int(r.scale(60000)))
		if err != nil {
			fail(err)
		}
		fmt.Print(experiments.FormatTable2(rows))
	case "table3":
		cfg := experiments.DefaultTable3Config()
		cfg.Seed = r.seed
		cfg.WarmupMS = r.scale(cfg.WarmupMS)
		cfg.MeasureMS = r.scale(cfg.MeasureMS)
		res, err := r.rc.Table3(cfg)
		if err != nil {
			fail(err)
		}
		fmt.Print(experiments.FormatTable3(res))
	case "fig3":
		res := experiments.Figure3()
		if r.csv {
			fmt.Print(res.Power.CSV(), res.Temperature.CSV(), res.ThermalPower.CSV())
			return true
		}
		opt := textplot.DefaultOptions()
		opt.Title = "Figure 3: relation between temperature, power, and thermal power"
		opt.YUnit = "W"
		fmt.Print(textplot.Plot([]*stats.Series{res.Power, res.ThermalPower}, opt))
		opt2 := textplot.DefaultOptions()
		opt2.Title = "(temperature, same time axis)"
		opt2.YUnit = "C"
		fmt.Print(textplot.Plot([]*stats.Series{res.Temperature}, opt2))
	case "fig6", "fig7":
		cfg := experiments.DefaultThermalTraceConfig(cmd == "fig7")
		cfg.Seed = r.seed
		cfg.DurationMS = r.scale(cfg.DurationMS)
		res := r.rc.ThermalTrace(cfg)
		if r.csv {
			for _, s := range res.Series {
				fmt.Print(s.CSV())
			}
			return true
		}
		opt := textplot.DefaultOptions()
		state := "disabled"
		if cmd == "fig7" {
			state = "enabled"
		}
		opt.Title = fmt.Sprintf("Figure %s: thermal power of the 8 CPUs, energy balancing %s", strings.TrimPrefix(cmd, "fig"), state)
		opt.YUnit = "W"
		opt.YMin, opt.YMax = 10, 65
		opt.HLine = 50
		fmt.Print(textplot.Plot(res.Series, opt))
		fmt.Printf("band spread %.1f W, peak %.1f W, %d migrations\n", res.SpreadW, res.MaxW, res.Migrations)
	case "fig8":
		cfg := experiments.DefaultFigure8Config()
		cfg.Seed = r.seed
		cfg.WarmupMS = r.scale(cfg.WarmupMS)
		cfg.MeasureMS = r.scale(cfg.MeasureMS)
		points, err := r.rc.Figure8(cfg)
		if err != nil {
			fail(err)
		}
		fmt.Println("Figure 8: Dependence of throughput on the workload (#memrw/#pushpop/#bitcnts)")
		labels := make([]string, len(points))
		values := make([]float64, len(points))
		for i, p := range points {
			labels[i] = fmt.Sprintf("%d/%d/%d", p.Memrw, p.Pushpop, p.Bitcnts)
			values[i] = p.GainPct
		}
		fmt.Print(textplot.Bars(labels, values, "%", 40))
	case "fig9":
		res := r.rc.Figure9(r.seed, r.scale(200000))
		fmt.Print(experiments.FormatFigure9(res))
		if !r.csv {
			s := stats.NewSeries("cpu", 1)
			for _, c := range res.CPUs {
				s.Append(float64(c))
			}
			opt := textplot.DefaultOptions()
			opt.Title = "Figure 9: hot task migration of a single task (CPU vs time)"
			opt.YMin, opt.YMax = -0.5, 15.5
			fmt.Print(textplot.Plot([]*stats.Series{s}, opt))
		}
	case "fig10":
		cfg := experiments.DefaultFigure10Config()
		cfg.Seed = r.seed
		cfg.WarmupMS = r.scale(cfg.WarmupMS)
		cfg.MeasureMS = r.scale(cfg.MeasureMS)
		points, err := r.rc.Figure10(cfg)
		if err != nil {
			fail(err)
		}
		fmt.Println("Figure 10: hot task migration — throughput with multiple tasks")
		labels := make([]string, len(points))
		values := make([]float64, len(points))
		for i, p := range points {
			labels[i] = fmt.Sprintf("%d tasks", p.Tasks)
			values[i] = p.GainPct
		}
		fmt.Print(textplot.Bars(labels, values, "%", 40))
	case "hotspeed":
		work := float64(r.scale(60000))
		fmt.Print(experiments.FormatHotTaskSpeedup(r.rc.HotTaskSpeedup(r.seed, 40, work)))
		fmt.Print(experiments.FormatHotTaskSpeedup(r.rc.HotTaskSpeedup(r.seed, 50, work)))
	case "migrations":
		mc, err := r.rc.MigrationCounts(r.seed, r.scale(900000))
		if err != nil {
			fail(err)
		}
		fmt.Println("Migrations during the §6.1 mixed-workload runs:")
		fmt.Printf("  SMT off: %4d disabled, %4d enabled   (paper: 3.3 vs 32)\n", mc.SMTOffDisabled, mc.SMTOffEnabled)
		fmt.Printf("  SMT on:  %4d disabled, %4d enabled   (paper: 9.8 vs 87)\n", mc.SMTOnDisabled, mc.SMTOnEnabled)
	case "ablation":
		rows := r.rc.AblationBalancerMetrics(r.seed, r.scale(300000))
		fmt.Print(experiments.FormatAblation(rows))
		p := r.rc.AblationPlacement(r.seed, r.scale(180000))
		fmt.Printf("placement ablation (short tasks): full %+.1f%%, placement-only %+.1f%%, balancing-only %+.1f%%\n",
			p.GainFullPolicy*100, p.GainPlacementOnly*100, p.GainBalancingOnly*100)
	case "cmp":
		fmt.Print(experiments.FormatCMP(r.rc.CMPHotTask(r.seed, r.scale(180000))))
	case "policies":
		fmt.Print(experiments.FormatPolicyComparison(r.rc.PolicyComparison(r.seed, r.scale(240000))))
	case "units":
		fmt.Print(experiments.FormatUnitAware(r.rc.UnitAware(r.seed, r.scale(240000))))
	case "dvfs":
		cfg := experiments.DefaultDVFSComparisonConfig()
		cfg.Seed = r.seed
		cfg.WorkMS = float64(r.scale(int64(cfg.WorkMS)))
		// The -governor flag's pick leads the comparison table.
		govs := []string{r.governor}
		for _, g := range cfg.Governors {
			if g != r.governor {
				govs = append(govs, g)
			}
		}
		cfg.Governors = govs
		fmt.Print(experiments.FormatDVFSComparison(r.rc.DVFSvsThrottle(cfg)))
	case "misestimate":
		cfg := experiments.DefaultMisestimateConfig()
		cfg.Seed = r.seed
		cfg.WorkMS = float64(r.scale(int64(cfg.WorkMS)))
		fmt.Print(experiments.FormatMisestimate(r.rc.Misestimate(cfg)))
	case "sweeps":
		hyst, err := r.rc.SweepHysteresis(r.seed, r.scale(300000))
		if err != nil {
			fail(err)
		}
		fmt.Print(experiments.FormatHysteresis(hyst))
		fmt.Println()
		taus, err := r.rc.SweepTimeConstant(r.seed, r.scale(300000))
		if err != nil {
			fail(err)
		}
		fmt.Print(experiments.FormatTimeConstant(taus))
		fmt.Println()
		gaps, err := r.rc.SweepDestGap(r.seed, r.scale(300000))
		if err != nil {
			fail(err)
		}
		fmt.Print(experiments.FormatDestGap(gaps))
	case "all":
		for _, c := range []string{"table1", "table2", "table3", "fig3", "fig6", "fig7", "fig8", "fig9", "fig10", "hotspeed", "migrations", "ablation", "cmp", "policies", "units", "dvfs", "misestimate", "sweeps"} {
			fmt.Printf("==== %s ====\n", c)
			r.run(c)
			fmt.Println()
		}
	default:
		return false
	}
	return true
}
