// Command escalibrate walks through the two offline calibration
// procedures the paper's system depends on, printing each step:
//
//  1. Energy-weight calibration (§3.2): run the test applications under
//     a (simulated) bench multimeter, count events, and solve the
//     resulting overdetermined linear system for the per-event energy
//     weights aᵢ of E = Σ aᵢ·cᵢ. The tool reports the recovered weights
//     against the hidden ground truth and the resulting estimation
//     error on unseen workloads (the paper reports < 10 %).
//
//  2. Thermal-model calibration (§4.2): heat each processor from idle
//     with a maximum-power task, record its thermal diode over time,
//     and fit the RC exponential. The tool reports the recovered R and
//     τ per package against ground truth.
//
// Usage: escalibrate [-seed N] [-noise F]
package main

import (
	"flag"
	"fmt"
	"math"

	"energysched/internal/counters"
	"energysched/internal/energy"
	"energysched/internal/experiments"
	"energysched/internal/machine"
	"energysched/internal/rng"
	"energysched/internal/sched"
	"energysched/internal/thermal"
	"energysched/internal/topology"
	"energysched/internal/workload"
)

func main() {
	seed := flag.Uint64("seed", 2006, "random seed")
	noise := flag.Float64("noise", 0.02, "multimeter 1-sigma relative noise")
	flag.Parse()

	model := energy.DefaultTrueModel()
	r := rng.New(*seed)

	fmt.Println("== Energy-weight calibration (§3.2) ==")
	fmt.Printf("multimeter noise: %.1f%%\n\n", *noise*100)

	cat := workload.NewCatalog(model)
	var apps []counters.Rates
	for _, prog := range cat.Table2Set() {
		for _, ph := range prog.Phases {
			apps = append(apps, ph.Rates)
		}
	}
	meter := energy.NewMultimeter(*noise, r.Split())
	est, err := energy.Calibrate(model, meter, apps, energy.DefaultCalibrationConfig(), r.Split())
	if err != nil {
		fmt.Println("calibration failed:", err)
		return
	}
	fmt.Printf("%-18s %14s %14s %8s\n", "event", "true weight", "recovered", "error")
	for ev := 0; ev < int(counters.NumEvents); ev++ {
		tw, rw := model.Weights[ev], est.Weights[ev]
		errPct := 0.0
		if tw != 0 {
			errPct = (rw/tw - 1) * 100
		}
		fmt.Printf("%-18s %11.3f nJ %11.3f nJ %+7.2f%%\n",
			counters.Event(ev).String(), tw*1e9, rw*1e9, errPct)
	}

	// Estimation error on unseen random mixes.
	eval := rng.New(*seed + 1)
	maxErr, sumErr := 0.0, 0.0
	const trials = 200
	for i := 0; i < trials; i++ {
		var sig energy.Signature
		total := 0.0
		for j := range sig {
			if counters.Event(j) == counters.Cycles {
				continue
			}
			sig[j] = eval.Float64()
			total += sig[j]
		}
		if total == 0 {
			continue
		}
		watts := 30 + eval.Float64()*35
		c := model.RatesForPower(watts, sig).Counts(100)
		rel := math.Abs(est.EnergyJ(c, 0)-model.EnergyJ(c, 0)) / model.EnergyJ(c, 0)
		sumErr += rel
		if rel > maxErr {
			maxErr = rel
		}
	}
	fmt.Printf("\nestimation error on %d unseen workloads: avg %.2f%%, max %.2f%% (paper: <10%%)\n\n",
		trials, sumErr/trials*100, maxErr*100)

	fmt.Println("== Thermal-model calibration (§4.2) ==")
	fmt.Println("heating each package from idle with bitcnts (61 W) on the async engine,")
	fmt.Println("fitting the diode trace:")
	fmt.Printf("\n%-8s %12s %12s %10s %10s\n", "package", "true R", "fitted R", "true tau", "fitted tau")
	diode := thermal.DefaultDiode()
	for p, props := range experiments.ReferenceProps() {
		// The §4.2 procedure as the kernel would run it: a single-CPU
		// machine of this package heated by the maximum-power task,
		// its diode sampled once per simulated second. Running it
		// through the machine (rather than stepping the RC node
		// directly) exercises the full engine path.
		m := machine.MustNew(machine.Config{
			Layout:       topology.Layout{Nodes: 1, PackagesPerNode: 1, ThreadsPerPackage: 1},
			Sched:        sched.BaselineConfig(),
			Seed:         *seed + uint64(p),
			PackageProps: []thermal.Properties{props},
		})
		m.Spawn(cat.Bitcnts())
		var samples []float64
		for sSec := 0; sSec < 90; sSec++ {
			samples = append(samples, diode.Quantize(m.CoreTemp(0))+diode.ResolutionC/2)
			m.Run(1000)
		}
		fit, err := thermal.Calibrate(samples, 1, 61, props.AmbientC)
		if err != nil {
			fmt.Printf("pkg %d: fit failed: %v\n", p, err)
			continue
		}
		fmt.Printf("%-8d %9.3f K/W %9.3f K/W %8.1f s %8.1f s\n",
			p, props.R, fit.R, props.TimeConstant(), fit.TimeConstant)
	}
	fmt.Println("\nthe fitted values are what the scheduler's thermal-power weights and")
	fmt.Println("per-package max powers are derived from (§4.2–§4.3).")
}
