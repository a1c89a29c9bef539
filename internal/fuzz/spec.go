// Package fuzz is the differential scenario fuzzer: a seeded generator
// of random machine scenarios (topologies, thermal calibrations, DVFS
// ladders, governor/throttle configs, workload mixes, run lengths,
// deadline periods) plus an oracle harness that runs every scenario
// through both engines — lockstep and async — byte-diffs their event
// traces, compares their observable state, and checks each machine's
// conservation and
// parking invariants (machine.CheckInvariants), so the lockstep
// reference is cross-checked too, not just mimicked.
//
// Failing scenarios are minimized by a greedy shrinker and committed to
// the corpus/ directory, which corpus_test.go replays as ordinary go
// tests: a corpus failure is a tier-1 failure.
//
// Scenarios are scenario.Spec values: the fuzzer, the benchmark
// scenarios, estrace, and the esfarmd sweep daemon all share that one
// versioned schema, so a fuzz-shrunk failure replays verbatim against
// any of them, and corpus files load with scenario.LoadFile.
package fuzz
