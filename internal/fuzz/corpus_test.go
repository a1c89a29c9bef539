package fuzz

import (
	"path/filepath"
	"testing"

	"energysched/internal/scenario"
)

// TestCorpus replays every minimized regression scenario in corpus/
// through the full three-engine oracle. The corpus is the fuzzer's
// institutional memory: each file is a once-failing scenario, shrunk,
// with its root cause in the "note" field. A failure here is a tier-1
// failure — a fixed bug has come back.
func TestCorpus(t *testing.T) {
	files, err := filepath.Glob("corpus/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("corpus/ is empty — regression scenarios missing")
	}
	for _, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			s, err := scenario.LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("invalid corpus spec: %v", err)
			}
			if f := Check(s); f != nil {
				t.Errorf("regression (%s): %v", s.Note, f)
			}
		})
	}
}
