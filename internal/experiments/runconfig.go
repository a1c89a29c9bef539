package experiments

import (
	"energysched/internal/machine"
)

// RunConfig carries the execution knobs an experiment run needs but a
// result must not depend on: which simulation core to run machines on,
// and how many worker goroutines to use for independent runs. Every
// experiment entry point is a method on RunConfig; the zero value
// (async engine, GOMAXPROCS workers) reproduces every table and figure,
// and the cross-engine equivalence tests guarantee no number depends
// on the choice.
type RunConfig struct {
	// Jobs bounds the worker pool ForEach uses for independent
	// experiment runs: 0 means GOMAXPROCS, 1 forces sequential
	// execution, anything larger caps the pool at that many
	// goroutines. Output is byte-identical for every value.
	Jobs int
	// Engine selects the simulation core every experiment machine runs
	// on. The zero value is the (default) async engine.
	Engine machine.Engine
}

// newMachine builds an experiment machine on the configured engine.
func (rc RunConfig) newMachine(cfg machine.Config) *machine.Machine {
	cfg.Engine = rc.Engine
	return machine.MustNew(cfg)
}
