package experiments

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// TestForEachCoversAllIndices checks the pool visits every index
// exactly once for worker counts below, at, and above n.
func TestForEachCoversAllIndices(t *testing.T) {
	for _, jobs := range []int{0, 1, 2, 7, 64} {
		rc := RunConfig{Jobs: jobs}
		var hits [33]int32
		if err := rc.ForEach(len(hits), func(i int) { atomic.AddInt32(&hits[i], 1) }); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("jobs=%d: index %d run %d times", jobs, i, h)
			}
		}
	}
}

// TestForEachPanicSurfacesAsError is the worker-pool robustness
// contract: a panicking run must not kill the process or deadlock the
// feeder — it comes back as an error naming the owning slot, every
// other slot still completes, and the reported slot is the lowest
// panicking index regardless of worker count.
func TestForEachPanicSurfacesAsError(t *testing.T) {
	for _, jobs := range []int{1, 2, 8} {
		rc := RunConfig{Jobs: jobs}
		var hits [16]int32
		err := rc.ForEach(len(hits), func(i int) {
			if i == 3 || i == 11 {
				panic("deliberate scenario failure")
			}
			atomic.AddInt32(&hits[i], 1)
		})
		if err == nil {
			t.Fatalf("jobs=%d: panic not surfaced", jobs)
		}
		if !strings.Contains(err.Error(), "run 3 panicked") || !strings.Contains(err.Error(), "deliberate scenario failure") {
			t.Errorf("jobs=%d: error should name the lowest owning slot, got: %v", jobs, err)
		}
		for i, h := range hits {
			if i == 3 || i == 11 {
				continue
			}
			if h != 1 {
				t.Errorf("jobs=%d: healthy slot %d run %d times after sibling panic", jobs, i, h)
			}
		}
	}
}

// TestParallelSweepByteStable asserts the -j acceptance contract: a
// sweep's results are identical whether its runs execute sequentially
// or on a saturated worker pool. Each run derives its
// machine seed from the sweep index and writes into its own result
// slot, so only scheduling order differs — never data.
func TestParallelSweepByteStable(t *testing.T) {
	sweep := func(t *testing.T, rc RunConfig) string {
		t.Helper()
		pts, err := rc.SweepDestGap(7, 60_000)
		if err != nil {
			t.Fatal(err)
		}
		return FormatDestGap(pts)
	}
	seq := sweep(t, RunConfig{Jobs: 1})
	par := sweep(t, RunConfig{Jobs: 8})
	if seq != par {
		t.Errorf("SweepDestGap output differs between -j 1 and -j 8:\n-- sequential --\n%s\n-- parallel --\n%s", seq, par)
	}

	cfg := DefaultFigure8Config()
	cfg.WarmupMS, cfg.MeasureMS = 15_000, 45_000
	fig8 := func(t *testing.T, rc RunConfig) []Figure8Point {
		t.Helper()
		pts, err := rc.Figure8(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	seqPts := fig8(t, RunConfig{Jobs: 1})
	parPts := fig8(t, RunConfig{Jobs: 8})
	if !reflect.DeepEqual(seqPts, parPts) {
		t.Errorf("Figure8 points differ between -j 1 and -j 8:\n-- sequential --\n%+v\n-- parallel --\n%+v", seqPts, parPts)
	}
}
