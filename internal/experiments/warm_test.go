package experiments

import (
	"reflect"
	"testing"

	"energysched/internal/machine"
	"energysched/internal/scenario"
)

// TestSeedSweepPlansAgree pins the warm-branch acceptance contract:
// branching a warmed template per seed reproduces the rebuild-per-seed
// sweep exactly — same rows, in seed order, at every worker count and
// on every engine.
func TestSeedSweepPlansAgree(t *testing.T) {
	spec := scenario.MustNamed("engines/steady-state")
	seeds := []uint64{1, 2, 3, 5, 8, 13}
	const warmup, measure = 2000, 3000

	for _, e := range []machine.Engine{machine.EngineAsync, machine.EngineParallel} {
		rc := RunConfig{Engine: e}
		cold, err := rc.SeedSweepRebuild(spec, warmup, measure, seeds)
		if err != nil {
			t.Fatalf("%v rebuild: %v", e, err)
		}
		warm, err := rc.SeedSweep(spec, warmup, measure, seeds)
		if err != nil {
			t.Fatalf("%v warm: %v", e, err)
		}
		if !reflect.DeepEqual(cold, warm) {
			t.Errorf("%v: warm-branch sweep differs from rebuild sweep:\ncold: %+v\nwarm: %+v", e, cold, warm)
		}

		// Worker count must be unobservable on the warm path too.
		image, err := rc.WarmImage(spec, warmup)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := RunConfig{Engine: e, Jobs: 1}.SeedSweepFromImage(image, measure, seeds)
		if err != nil {
			t.Fatal(err)
		}
		par, err := RunConfig{Engine: e, Jobs: 8}.SeedSweepFromImage(image, measure, seeds)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("%v: seed sweep differs between -j 1 and -j 8", e)
		}
	}
}

// TestSeedSweepSeedsDiverge guards against a degenerate Reseed: rows
// of different seeds must actually differ somewhere.
func TestSeedSweepSeedsDiverge(t *testing.T) {
	spec := scenario.MustNamed("engines/steady-state")
	rows, err := RunConfig{}.SeedSweep(spec, 2000, 3000, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(rows[0].WorkDoneMS, rows[1].WorkDoneMS) &&
		reflect.DeepEqual(rows[0].TrueEnergyJ, rows[1].TrueEnergyJ) &&
		rows[0].Completions == rows[1].Completions {
		t.Errorf("seeds 1 and 2 produced identical rows: %+v", rows[0])
	}
}

// BenchmarkSeedSweep times the warm-branch seed sweep against the
// rebuild-per-seed plan it replaces: rebuild pays seeds×(warmup+measure)
// of simulation, warm-branch pays the warm-up once plus seeds×measure.
// One op is one whole 8-seed sweep. Sequential (Jobs=1) so the plans
// compare simulation work, not pool scheduling; the default engine, like
// a farm request that names none. The warm sub-benchmark reports the
// amortization the farm's image cache banks on as rebuild/warm (when the
// rebuild sub-benchmark ran first), e.g.
//
//	go test ./internal/experiments -run '^$' -bench SeedSweep
func BenchmarkSeedSweep(b *testing.B) {
	const warmupMS, measureMS = 5_000, 2_000
	spec := scenario.MustNamed("engines/steady-state")
	rc := RunConfig{Jobs: 1}
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}

	var rebuildNs float64
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rc.SeedSweepRebuild(spec, warmupMS, measureMS, seeds); err != nil {
				b.Fatal(err)
			}
		}
		rebuildNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rc.SeedSweep(spec, warmupMS, measureMS, seeds); err != nil {
				b.Fatal(err)
			}
		}
		if rebuildNs > 0 {
			warmNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(rebuildNs/warmNs, "rebuild/warm")
		}
	})
}
