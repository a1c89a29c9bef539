package experiments

// RunConfig carries the one execution knob an experiment run needs but
// a result must not depend on: how many worker goroutines to use for
// independent runs. Every pooled experiment entry point is a method on
// RunConfig; the zero value (GOMAXPROCS workers) reproduces every table
// and figure. Experiment machines always run on the default (async)
// engine: the engine is an oracle seam pinned by the machine package's
// equivalence tests, not a reproduction option.
type RunConfig struct {
	// Jobs bounds the worker pool ForEach uses for independent
	// experiment runs: 0 means GOMAXPROCS, 1 forces sequential
	// execution, anything larger caps the pool at that many
	// goroutines. Output is byte-identical for every value.
	Jobs int
}
