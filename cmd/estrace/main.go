// Command estrace runs a scenario with the event recorder attached and
// dumps the scheduler-level trace — spawns, dispatches, timeslice ends,
// blocks/wakes, migrations with reasons, throttle transitions — as CSV
// or JSON lines on stdout. The traces are the raw material of the
// paper's figures (the Fig. 9 CPU trail is the migrate events of the
// "hottask" scenario).
//
// Usage:
//
//	estrace [-scenario NAME] [-engine async|lockstep|parallel]
//	        [-governor performance|ondemand|thermal]
//	        [-duration 60s] [-seed N] [-format csv|jsonl]
//
// -scenario takes any name of the shared catalog in internal/scenario
// (hottask, mixed, cmp, dvfs, faults, engines/..., large/...; an
// unknown name lists them all) — the same "hottask" here, in esfarmd,
// and in a JSON spec file is the same machine. -governor replaces the
// governor of a DVFS scenario; without it each scenario runs its own
// (dvfs: performance, engines/dvfs-thermal: thermal).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"energysched/internal/dvfs"
	"energysched/internal/machine"
	"energysched/internal/scenario"
	"energysched/internal/trace"
)

func main() {
	name := flag.String("scenario", "hottask", "catalog scenario name (hottask, mixed, cmp, dvfs, faults, engines/..., large/...)")
	duration := flag.Duration("duration", 60*time.Second, "simulated duration")
	seed := flag.Uint64("seed", 7, "random seed")
	format := flag.String("format", "csv", "output format: csv or jsonl")
	limit := flag.Int("limit", 0, "retain at most N events (0 = all)")
	engine := machine.EngineAsync
	flag.Func("engine", "simulation engine: async (default), lockstep, or parallel", func(s string) (err error) {
		engine, err = machine.ParseEngine(s)
		return err
	})
	governor := "" // the scenario's own
	flag.Func("governor", "DVFS governor replacing a DVFS scenario's own: "+strings.Join(dvfs.GovernorNames(), ", "),
		func(s string) (err error) {
			governor, err = dvfs.ParseGovernor(s)
			return err
		})
	flag.Parse()

	rec := trace.New(*limit)
	m, err := build(*name, *seed, rec, engine, governor)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	m.Run(int64(*duration / time.Millisecond))

	switch *format {
	case "csv":
		err = rec.WriteCSV(os.Stdout)
	case "jsonl":
		err = rec.WriteJSONL(os.Stdout)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if d := rec.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "note: %d oldest events dropped by -limit\n", d)
	}
}

// build assembles the requested catalog scenario with tracing attached,
// running on the requested simulation engine (the engines produce
// identical traces; see machine.TestEngineEquivalence). A non-empty
// governor replaces a DVFS scenario's own; other scenarios ignore it.
func build(name string, seed uint64, rec *trace.Recorder, engine machine.Engine, governor string) (*machine.Machine, error) {
	spec, err := scenario.Named(name)
	if err != nil {
		return nil, err
	}
	spec.Seed = seed
	if spec.DVFS != nil && governor != "" {
		spec.DVFS.Governor = governor
	}
	return spec.Build(engine, rec)
}
