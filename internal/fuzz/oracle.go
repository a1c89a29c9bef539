package fuzz

import (
	"fmt"
	"strings"

	"energysched/internal/machine"
	"energysched/internal/scenario"
	"energysched/internal/trace"
)

// The oracle harness: one scenario through both engines. The lockstep
// engine is the reference; the async engine must reproduce its event
// trace byte-for-byte and its observable state within floating-point
// rounding. Each machine is additionally checked against its own
// conservation and parking invariants, so a bug shared by both engines
// (or in lockstep itself) still trips the oracle.

// tol is the cross-engine relative tolerance for float outcomes,
// matching TestEngineEquivalence.
const tol = 1e-6

// Failure describes why a scenario tripped the oracle.
type Failure struct {
	Spec   scenario.Spec
	Engine machine.Engine // the machine the problem was observed on
	// Kind is "build", "invariant", "trace", or "state".
	Kind string
	// Diffs are the individual divergences (first trace line, snapshot
	// field mismatches, or the invariant violation).
	Diffs []string
}

// Error renders the failure for logs.
func (f *Failure) Error() string {
	n := len(f.Diffs)
	lines := f.Diffs
	if n > 8 {
		lines = append(append([]string(nil), lines[:8]...), fmt.Sprintf("... and %d more", n-8))
	}
	return fmt.Sprintf("%s [%s/%s]:\n  %s", f.Spec.Name, f.Engine, f.Kind, strings.Join(lines, "\n  "))
}

// Check runs the scenario through both engines and returns nil when
// every oracle condition holds.
func Check(s scenario.Spec) *Failure {
	// Lockstep reference: one uninterrupted run.
	lockRec := trace.New(0)
	lock, err := s.Build(machine.EngineLockstep, lockRec)
	if err != nil {
		return &Failure{Spec: s, Engine: machine.EngineLockstep, Kind: "build", Diffs: []string{err.Error()}}
	}
	lock.Run(s.RunMS)
	if err := lock.CheckInvariants(); err != nil {
		return &Failure{Spec: s, Engine: machine.EngineLockstep, Kind: "invariant", Diffs: []string{err.Error()}}
	}
	lockCSV, err := renderTrace(lockRec)
	if err != nil {
		return &Failure{Spec: s, Engine: machine.EngineLockstep, Kind: "trace", Diffs: []string{err.Error()}}
	}
	if diffs := checkTraceCounts(lock, lockRec); len(diffs) > 0 {
		return &Failure{Spec: s, Engine: machine.EngineLockstep, Kind: "invariant", Diffs: diffs}
	}
	ref := lock.Snapshot()

	const engine = machine.EngineAsync
	rec := trace.New(0)
	m, err := s.Build(engine, rec)
	if err != nil {
		return &Failure{Spec: s, Engine: engine, Kind: "build", Diffs: []string{err.Error()}}
	}
	// Chunked advance: exercises Run-boundary clamping and the
	// end-of-Run settle + invariant state at every boundary.
	chunks := s.Chunks
	if chunks < 1 {
		chunks = 1
	}
	per := s.RunMS / int64(chunks)
	if per < 1 {
		per, chunks = s.RunMS, 1
	}
	for i := 0; i < chunks; i++ {
		m.Run(per)
		if err := m.CheckInvariants(); err != nil {
			return &Failure{Spec: s, Engine: engine, Kind: "invariant",
				Diffs: []string{fmt.Sprintf("after chunk %d/%d: %v", i+1, chunks, err)}}
		}
	}
	if rem := s.RunMS - int64(chunks)*per; rem > 0 {
		m.Run(rem)
		if err := m.CheckInvariants(); err != nil {
			return &Failure{Spec: s, Engine: engine, Kind: "invariant", Diffs: []string{err.Error()}}
		}
	}
	gotCSV, err := renderTrace(rec)
	if err != nil {
		return &Failure{Spec: s, Engine: engine, Kind: "trace", Diffs: []string{err.Error()}}
	}
	if gotCSV != lockCSV {
		return &Failure{Spec: s, Engine: engine, Kind: "trace",
			Diffs: []string{firstTraceDiff(lockCSV, gotCSV)}}
	}
	if diffs := machine.DiffSnapshots(ref, m.Snapshot(), tol); len(diffs) > 0 {
		return &Failure{Spec: s, Engine: engine, Kind: "state", Diffs: diffs}
	}
	if diffs := checkTraceCounts(m, rec); len(diffs) > 0 {
		return &Failure{Spec: s, Engine: engine, Kind: "invariant", Diffs: diffs}
	}
	return nil
}

// checkTraceCounts cross-checks a machine's counters against its own
// event trace: completions vs finish events, migration count vs migrate
// events, and live+finished tasks vs spawn events — the trace and the
// counters are maintained independently, so drift flags a bookkeeping
// bug even when all engines share it.
func checkTraceCounts(m *machine.Machine, rec *trace.Recorder) []string {
	var spawns, finishes, migrates int64
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case trace.Spawn:
			spawns++
		case trace.Finish:
			finishes++
		case trace.Migrate:
			migrates++
		}
	}
	var diffs []string
	if finishes != m.Completions {
		diffs = append(diffs, fmt.Sprintf("trace finish events %d vs Completions %d", finishes, m.Completions))
	}
	if migrates != m.MigrationCount() {
		diffs = append(diffs, fmt.Sprintf("trace migrate events %d vs MigrationCount %d", migrates, m.MigrationCount()))
	}
	live := int64(len(m.Snapshot().Tasks))
	if spawns != finishes+live {
		diffs = append(diffs, fmt.Sprintf("trace spawn events %d vs finishes %d + live tasks %d", spawns, finishes, live))
	}
	return diffs
}

// renderTrace serializes a recorder to the byte-comparable CSV form.
func renderTrace(rec *trace.Recorder) (string, error) {
	var b strings.Builder
	if err := rec.WriteCSV(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// firstTraceDiff locates the first differing line of two trace CSVs.
func firstTraceDiff(ref, got string) string {
	rl, gl := strings.Split(ref, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(rl) && i < len(gl); i++ {
		if rl[i] != gl[i] {
			return fmt.Sprintf("trace line %d: lockstep %q vs %q", i, rl[i], gl[i])
		}
	}
	return fmt.Sprintf("trace line count %d vs %d", len(rl), len(gl))
}
