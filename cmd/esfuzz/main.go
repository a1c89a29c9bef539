// esfuzz is the differential scenario fuzzer CLI. It generates seeded
// random scenarios and runs each through the two engines, lockstep and
// async, byte-diffing their traces and checking conservation and
// parking invariants (the two-engine oracle). Failing scenarios
// are greedily minimized and written as corpus JSON files that
// internal/fuzz replays as ordinary go tests.
//
// Usage:
//
//	esfuzz -seed 1 -n 200            # CI smoke: 200 scenarios from seed 1
//	esfuzz -seed 1 -n 5000 -shrink -corpus internal/fuzz/corpus
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"energysched/internal/fuzz"
	"energysched/internal/scenario"
)

func main() {
	var (
		seed   = flag.Uint64("seed", 1, "first scenario seed")
		n      = flag.Int("n", 200, "number of scenarios (consecutive seeds)")
		shrink = flag.Bool("shrink", false, "minimize failing scenarios before reporting")
		corpus = flag.String("corpus", "", "directory to write minimized failures to (implies -shrink)")
		maxF   = flag.Int("maxfail", 10, "stop after this many failures")
		quiet  = flag.Bool("q", false, "only report failures and the summary")
		faulty = flag.Bool("faults", false, "force a fault-injection schedule onto every scenario")
	)
	flag.Parse()
	if *corpus != "" {
		*shrink = true
	}

	start := time.Now()
	var fails, checked int
	var costMS int64
	for i := 0; i < *n && fails < *maxF; i++ {
		s := fuzz.Generate(*seed + uint64(i))
		if *faulty {
			fuzz.EnsureFaults(&s)
		}
		checked++
		costMS += s.CostMS()
		f := fuzz.Check(s)
		if f == nil {
			if !*quiet && (i+1)%50 == 0 {
				fmt.Printf("... %d/%d ok (%.1fs)\n", i+1, *n, time.Since(start).Seconds())
			}
			continue
		}
		fails++
		fmt.Printf("FAIL %v\n", f)
		if !*shrink {
			continue
		}
		min, calls := fuzz.Shrink(f.Spec, func(c scenario.Spec) bool { return fuzz.Check(c) != nil })
		mf := fuzz.Check(min)
		if mf == nil {
			// Shrinking must preserve failure; if the budget ran dry at a
			// passing point, fall back to the original.
			min, mf = f.Spec, f
		}
		fmt.Printf("  shrunk (%d attempts) to %v\n", calls, mf)
		if *corpus != "" {
			if err := os.MkdirAll(*corpus, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			min.Note = fmt.Sprintf("%s/%s divergence found by esfuzz seed %d", mf.Engine, mf.Kind, s.Seed)
			path := filepath.Join(*corpus, fmt.Sprintf("%s.json", min.Name))
			if err := min.WriteFile(path); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			fmt.Printf("  wrote %s\n", path)
		}
	}
	fmt.Printf("esfuzz: %d scenarios, %d failures, %.1f sim-CPU-hours in %.1fs\n",
		checked, fails, float64(costMS)/3.6e6, time.Since(start).Seconds())
	if fails > 0 {
		os.Exit(1)
	}
}
