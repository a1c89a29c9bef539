package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"energysched/internal/machine"
	"energysched/internal/scenario"
)

// warmBranchSweep is the warm-branch plan built from this package's
// primitives: restore a WarmImage once, branch the template per seed,
// and measure each branch with MeasureSeed on the ForEach pool.
func warmBranchSweep(rc RunConfig, image []byte, measureMS int64, seeds []uint64) ([]SeedRow, error) {
	template, err := machine.Restore(image, nil)
	if err != nil {
		return nil, err
	}
	rows := make([]SeedRow, len(seeds))
	err = rc.ForEach(len(seeds), func(i int) {
		b, err := template.Branch(nil)
		if err != nil {
			panic(fmt.Sprintf("branch for seed %d: %v", seeds[i], err))
		}
		rows[i] = MeasureSeed(b, seeds[i], measureMS)
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// TestSeedSweepPlansAgree pins the warm-branch acceptance contract:
// branching a warmed template per seed reproduces the rebuild-per-seed
// sweep exactly — same rows, in seed order, at every worker count.
func TestSeedSweepPlansAgree(t *testing.T) {
	spec := scenario.MustNamed("engines/steady-state")
	seeds := []uint64{1, 2, 3, 5, 8, 13}
	const warmup, measure = 2000, 3000

	cold, err := RunConfig{}.SeedSweepRebuild(spec, warmup, measure, seeds)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	image, err := WarmImage(spec, warmup)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := warmBranchSweep(RunConfig{Jobs: 1}, image, measure, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, seq) {
		t.Errorf("warm-branch sweep differs from rebuild sweep:\ncold: %+v\nwarm: %+v", cold, seq)
	}
	par, err := warmBranchSweep(RunConfig{Jobs: 8}, image, measure, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("warm-branch sweep differs between -j 1 and -j 8")
	}
}

// TestSeedSweepSeedsDiverge guards against a degenerate Reseed: rows
// of different seeds must actually differ somewhere.
func TestSeedSweepSeedsDiverge(t *testing.T) {
	spec := scenario.MustNamed("engines/steady-state")
	image, err := WarmImage(spec, 2000)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := warmBranchSweep(RunConfig{}, image, 3000, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].WorkDoneMS == rows[1].WorkDoneMS &&
		rows[0].TrueEnergyJ == rows[1].TrueEnergyJ &&
		rows[0].Completions == rows[1].Completions {
		t.Errorf("seeds 1 and 2 produced identical rows: %+v", rows[0])
	}
}
