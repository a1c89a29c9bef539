// Package cliflags is the shared CLI flag plumbing of the tools
// (cmd/espower, cmd/estrace, cmd/escalibrate, cmd/esfarmd):
// every tool that selects a simulation engine, a DVFS governor, or a
// worker count registers the flag here, so the accepted values, the
// help text, and the validation live in exactly one place. Invalid
// values surface through the flag package's usual parse error (exit
// status 2).
package cliflags

import (
	"flag"
	"strings"

	"energysched/internal/dvfs"
	"energysched/internal/machine"
)

type engineFlag struct{ e *machine.Engine }

func (f engineFlag) String() string {
	if f.e == nil {
		// Zero value: empty, so flag.PrintDefaults still shows the
		// registered default ("async") in -h output.
		return ""
	}
	return f.e.String()
}

func (f engineFlag) Set(s string) error {
	e, err := machine.ParseEngine(s)
	if err != nil {
		return err
	}
	*f.e = e
	return nil
}

// Engine registers the standard -engine flag on fs (nil selects
// flag.CommandLine) and returns the destination, defaulting to the zero
// value: the async engine.
func Engine(fs *flag.FlagSet) *machine.Engine {
	if fs == nil {
		fs = flag.CommandLine
	}
	e := new(machine.Engine)
	fs.Var(engineFlag{e}, "engine", "simulation engine: async, lockstep, or parallel")
	return e
}

type governorFlag struct{ g *string }

func (f governorFlag) String() string {
	if f.g == nil {
		// Zero value: empty, so flag.PrintDefaults still shows the
		// registered default ("ondemand") in -h output.
		return ""
	}
	return *f.g
}

func (f governorFlag) Set(s string) error {
	g, err := dvfs.ParseGovernor(s)
	if err != nil {
		return err
	}
	*f.g = g
	return nil
}

// Governor registers the standard -governor flag on fs (nil selects
// flag.CommandLine) and returns the destination, defaulting to the
// ondemand governor.
func Governor(fs *flag.FlagSet) *string {
	if fs == nil {
		fs = flag.CommandLine
	}
	g := new(string)
	*g = "ondemand"
	fs.Var(governorFlag{g}, "governor",
		"DVFS governor for frequency-scaling runs: "+strings.Join(dvfs.GovernorNames(), ", "))
	return g
}

// Jobs registers the standard -j flag on fs (nil selects
// flag.CommandLine) and returns the destination; 0 (the default) means
// GOMAXPROCS.
func Jobs(fs *flag.FlagSet) *int {
	if fs == nil {
		fs = flag.CommandLine
	}
	return fs.Int("j", 0,
		"worker goroutines for independent runs (0 = GOMAXPROCS, 1 = sequential)")
}
