package fuzz

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"energysched/internal/scenario"
)

// The caps of FuzzEngineOracle's scenarios: small enough that the
// lockstep reference runs in milliseconds, so the fuzzer spends its
// time on many scenarios rather than on long ones.
const (
	oracleMaxCPUs  = 16
	oracleMaxRunMS = 2_000
	oracleMaxTasks = 64
)

// oracleSpec maps a fuzz input to a scenario: a spec's JSON (the
// regression corpus, and mutations of it that still parse) as written,
// anything else as a generator seed, its first eight bytes read
// little-endian. Either is then capped at oracleMaxCPUs logical CPUs
// (capCPUs) and oracleMaxRunMS of simulated time; ok is false for a
// spec that does not validate or spawns more than oracleMaxTasks
// tasks.
func oracleSpec(data []byte) (s scenario.Spec, ok bool) {
	s, err := scenario.Parse(data)
	if err != nil {
		var seed [8]byte
		copy(seed[:], data)
		s = Generate(binary.LittleEndian.Uint64(seed[:]))
	} else if s.Topology.Layout().Validate() != nil {
		return s, false
	}
	capCPUs(&s, oracleMaxCPUs)
	s.RunMS = min(s.RunMS, oracleMaxRunMS)
	if s.TotalTasks() > oracleMaxTasks || s.Validate() != nil {
		return s, false
	}
	return s, true
}

// FuzzEngineOracle runs the differential oracle (Check) natively: the
// async engine must reproduce the lockstep trace byte for byte and its
// state within tolerance, and both must keep their invariants, on every
// scenario oracleSpec maps an input to. The seeds are the regression
// corpus (corpus/*.json) and a few generator seeds; a crasher is
// written to testdata/fuzz/ and, committed there, replays under
// `go test ./...`.
func FuzzEngineOracle(f *testing.F) {
	files, err := filepath.Glob("corpus/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, seed := range []uint64{1, 9000} {
		f.Add(binary.LittleEndian.AppendUint64(nil, seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, ok := oracleSpec(data)
		if !ok {
			t.Skip("outside the oracle's caps")
		}
		if fail := Check(s); fail != nil {
			t.Fatal(fail)
		}
	})
}
