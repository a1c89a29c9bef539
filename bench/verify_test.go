package main

import (
	"bytes"
	"io"
	"testing"

	"energysched/internal/experiments"
	"energysched/internal/farm"
	"energysched/internal/scenario"
)

// The verifier's negative tests: a corrupted output must count as a
// failed operation, so the correctness checks cannot pass silently.

func TestAlteredMigrationFails(t *testing.T) {
	// The hot-task scenario migrates its one task every ~10 s.
	m, err := scenario.MustNamed("hottask").Build(defaultEngine, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(25_000)
	ref := m.Snapshot()
	if len(ref.Migrations) == 0 {
		t.Fatal("scenario produced no migrations to alter")
	}

	r := newResult(io.Discard)
	r.check("unchanged snapshot", sameSnapshot(ref, m.Snapshot()))
	altered := m.Snapshot()
	altered.Migrations[0].To++
	r.check("altered snapshot", sameSnapshot(ref, altered))
	if r.Attempted != 2 || r.Failed != 1 {
		t.Errorf("attempted %d, failed %d; want 2 attempted, 1 failed (the altered snapshot)", r.Attempted, r.Failed)
	}
}

func TestCorruptSweepBodyFails(t *testing.T) {
	w, err := newWorkload("farm-sweep", 1)
	if err != nil {
		t.Fatal(err)
	}
	w.WarmupMS, w.OpMS, w.Rows = 1_000, 1_000, 3
	req := w.request(w.WarmupMS, 0)
	var body bytes.Buffer
	if err := farm.NewServer(experiments.RunConfig{Jobs: 1}, 0, nil).Direct(&body, req); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(body.Bytes(), []byte("\n"))
	if len(lines) != 5 || len(lines[4]) != 0 {
		t.Fatalf("body has %d lines, want a header and 3 rows:\n%s", len(lines)-1, body.Bytes())
	}
	join := func(ls ...[]byte) []byte { return bytes.Join(ls, nil) }

	r := newResult(io.Discard)
	r.check("intact body", w.checkBody(req, body.Bytes()))
	for _, bad := range []struct {
		name string
		body []byte
	}{
		{"rows swapped", join(lines[0], lines[2], lines[1], lines[3])},
		{"row missing", join(lines[0], lines[1], lines[2])},
		{"error trailer", join(lines[0], lines[1], lines[2], lines[3], []byte(`{"error":"boom"}`+"\n"))},
		{"row as trailer", join(lines[0], lines[1], lines[2], []byte(`{"error":"boom"}`+"\n"))},
		{"other warm-up", bytes.Replace(body.Bytes(), []byte(`"warmup_ms":1000`), []byte(`"warmup_ms":1001`), 1)},
	} {
		if r.check(bad.name, w.checkBody(req, bad.body)) {
			t.Errorf("%s: the corrupted body passed", bad.name)
		}
	}
	if r.Attempted != 6 || r.Failed != 5 {
		t.Errorf("attempted %d, failed %d; want 6 attempted, 5 failed", r.Attempted, r.Failed)
	}
}
