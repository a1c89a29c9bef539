package main

import (
	"bytes"
	"errors"
	"fmt"

	"energysched/internal/farm"
	"energysched/internal/machine"
	"energysched/internal/scenario"
	"energysched/internal/trace"
)

// defaultEngine is the engine a user gets without choosing one: the zero
// value of machine.Engine, which a farm request with an empty engine
// field selects too. No workload names an engine, so a change of the
// default is measured the way users will see it.
var defaultEngine machine.Engine

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"saturated-256", "wide-idle-1024", "thermal-dvfs-8", "farm-sweep"}

// workload is one set of generated inputs. Simulation workloads advance
// a warmed machine in Run chunks of OpMS; the farm workload sends sweep
// requests whose seeds each measure an OpMS window.
type workload struct {
	Spec     scenario.Spec
	WarmupMS int64
	OpMS     int64
	PerRound int // operations per timed round
	Farm     bool
	Rows     int    // seeds per sweep request
	Seed     uint64 // the -seed the inputs derive from
}

// newWorkload generates a workload's inputs from the seed: it overrides
// the catalog scenario's seed and offsets the sweep seed lists.
func newWorkload(name string, seed uint64) (*workload, error) {
	w := &workload{Rows: 1, Seed: seed}
	var catalog string
	switch name {
	case "saturated-256":
		catalog, w.WarmupMS, w.OpMS, w.PerRound = "large/256cpu/saturated", 3_000, 1_000, 2
	case "wide-idle-1024":
		catalog, w.WarmupMS, w.OpMS, w.PerRound = "large/1024cpu/wide-idle", 3_000, 1_000, 2
	case "thermal-dvfs-8":
		catalog, w.WarmupMS, w.OpMS, w.PerRound = "engines/dvfs-thermal", 5_000, 10_000, 8
	case "farm-sweep":
		catalog, w.WarmupMS, w.OpMS, w.PerRound = "mixed", 60_000, 5_000, 4
		w.Farm, w.Rows = true, 16
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	spec, err := scenario.Named(catalog)
	if err != nil {
		return nil, err
	}
	spec.Seed = seed
	w.Spec = spec
	return w, nil
}

// simCPUMS is the simulated CPU-milliseconds one Run of OpMS covers.
func (w *workload) simCPUMS() float64 {
	return float64(w.Spec.Topology.Layout().NumLogical()) * float64(w.OpMS)
}

// opCPUMS is the simulated CPU-milliseconds one operation delivers: a
// chunk, or a sweep request's rows.
func (w *workload) opCPUMS() float64 {
	if w.Farm {
		return w.simCPUMS() * float64(w.Rows)
	}
	return w.simCPUMS()
}

// build validates the scenario, builds its machine and runs the warm-up:
// everything a simulation pays before its first result.
func (w *workload) build(e machine.Engine, rec *trace.Recorder) (*machine.Machine, error) {
	if err := w.Spec.Validate(); err != nil {
		return nil, err
	}
	m, err := w.Spec.Build(e, rec)
	if err != nil {
		return nil, err
	}
	m.Run(w.WarmupMS)
	return m, nil
}

// request is sweep request j for this workload: the seeded scenario
// inline (a catalog name cannot carry the seed), the default engine, the
// given warm-up, and Rows seeds of its own, so a run's rows sample many
// seeds rather than repeating one seed's cost.
func (w *workload) request(warmupMS int64, j int) farm.SweepRequest {
	spec := w.Spec
	seeds := make([]uint64, w.Rows)
	for i := range seeds {
		seeds[i] = w.Seed<<32 + uint64(j*w.Rows+i) + 1
	}
	return farm.SweepRequest{
		Version:   farm.RequestVersion,
		Scenario:  &spec,
		WarmupMS:  warmupMS,
		MeasureMS: w.OpMS,
		Seeds:     seeds,
	}
}

// missPeriod makes every missPeriod-th farm request a forced cache miss,
// so hits are exactly 1 - 1/missPeriod of the requests.
const missPeriod = 4

// farmRequest is the farm workload's request j and the cache state it
// must meet: a miss when j%missPeriod == missPeriod-1, since its warm-up
// of WarmupMS+j is a new image key, and a hit on the shared warm image
// otherwise.
func (w *workload) farmRequest(j int) (farm.SweepRequest, string) {
	if j%missPeriod == missPeriod-1 {
		return w.request(w.WarmupMS+int64(j), j), "miss"
	}
	return w.request(w.WarmupMS, j), "hit"
}

// checkBody checks a sweep reply body against its request.
func (w *workload) checkBody(req farm.SweepRequest, body []byte) error {
	return checkSweepBody(body, farm.Header{
		Version:      farm.RequestVersion,
		ScenarioHash: w.Spec.Hash(),
		Engine:       defaultEngine.String(),
		WarmupMS:     req.WarmupMS,
		MeasureMS:    req.MeasureMS,
		Seeds:        len(req.Seeds),
	}, req.Seeds)
}

// checkEngines runs the warm-up plus two operations on the lockstep
// oracle and on the default engine. The snapshots must agree within the
// cross-engine tolerance and the trace CSVs byte for byte.
func (w *workload) checkEngines() error {
	run := func(e machine.Engine) (*machine.Snapshot, []byte, error) {
		rec := trace.New(0)
		m, err := w.Spec.Build(e, rec)
		if err != nil {
			return nil, nil, err
		}
		m.Run(w.WarmupMS)
		m.Run(w.OpMS)
		m.Run(w.OpMS)
		var csv bytes.Buffer
		if err := rec.WriteCSV(&csv); err != nil {
			return nil, nil, err
		}
		return m.Snapshot(), csv.Bytes(), nil
	}
	refSnap, refCSV, err := run(machine.EngineLockstep)
	if err != nil {
		return err
	}
	snap, csv, err := run(defaultEngine)
	if err != nil {
		return err
	}
	if d := machine.DiffSnapshots(refSnap, snap, 1e-6); len(d) > 0 {
		return fmt.Errorf("%s vs lockstep: %d snapshot differences, first: %s", defaultEngine, len(d), d[0])
	}
	if !bytes.Equal(refCSV, csv) {
		return fmt.Errorf("%s vs lockstep: trace CSVs differ", defaultEngine)
	}
	return nil
}

// sameSnapshot compares a machine's state with a reference at tolerance
// 0: tracing, checkpointing and restoring must not move a single bit.
func sameSnapshot(ref, got *machine.Snapshot) error {
	if d := machine.DiffSnapshots(ref, got, 0); len(d) > 0 {
		return fmt.Errorf("%d snapshot differences, first: %s", len(d), d[0])
	}
	return nil
}

var errImageDiffers = errors.New("checkpoint image differs from the first warm image")
