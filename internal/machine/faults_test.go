package machine

import (
	"testing"

	"energysched/internal/faults"
	"energysched/internal/sched"
	"energysched/internal/topology"
)

// The fault-injection loop must actually fire: a machine whose
// estimator is mis-calibrated and drifting must observe residuals,
// recalibrate, and — with a divergence bound — engage the fallback.
func TestFaultLoopActivity(t *testing.T) {
	cat := catalog()
	build := func(e Engine, spec *faults.Spec) *Machine {
		m := MustNew(Config{
			Engine: e, Layout: topology.XSeries445NoSMT(),
			Sched: sched.BaselineConfig(), Seed: 3,
			PackageMaxPowerW: []float64{50},
			ThrottleEnabled:  true, Scope: ThrottlePerPackage,
			Faults: spec,
		})
		m.SpawnN(cat.Bitcnts(), 8)
		return m
	}

	t.Run("recalibration-recovers", func(t *testing.T) {
		m := build(EngineAsync, &faults.Spec{
			WeightScale:   []float64{0.5},
			RecalPeriodMS: 250,
			RecalRate:     0.3,
			RecalWarmup:   2,
		})
		half := m.Est.Weights
		m.Run(30_000)
		if m.RecalibrationCount == 0 {
			t.Fatalf("no recalibrations in 30 s")
		}
		// The adapted weights must have moved up from the halved start
		// toward the true model (checked through the busy event classes
		// the workload actually exercises).
		moved := false
		for i := range m.Est.Weights {
			if m.Est.Weights[i] > half[i]*1.2 {
				moved = true
			}
		}
		if !moved {
			t.Fatalf("weights did not recover from %v: %v", half, m.Est.Weights)
		}
	})

	t.Run("fallback-engages", func(t *testing.T) {
		m := build(EngineAsync, &faults.Spec{
			WeightScale:       []float64{0.4},
			RecalPeriodMS:     250,
			FallbackResidualW: 15,
			FallbackAfter:     2,
			FallbackScale:     0.6,
		})
		m.Run(30_000)
		if m.FallbackTicks == 0 {
			t.Fatalf("fallback never engaged under 0.4× weights")
		}
		for i, th := range m.throttles {
			if !m.fallbackOn {
				break
			}
			want := m.origLimitW[i] * 0.6
			if th.LimitW != want {
				t.Fatalf("throttle %d limit %v, want scaled %v", i, th.LimitW, want)
			}
		}
		if m.EstimationErrJ == 0 {
			t.Fatalf("mis-calibrated estimator accumulated no estimation error")
		}
	})

	t.Run("faults-off-zero-metrics", func(t *testing.T) {
		m := MustNew(Config{
			Engine: EngineParallel, Layout: topology.XSeries445NoSMT(),
			Sched: sched.BaselineConfig(), Seed: 3,
			PackageMaxPowerW: []float64{50},
		})
		m.SpawnN(cat.Bitcnts(), 4)
		m.Run(5_000)
		if m.EstimationErrJ != 0 || m.ResidualW != 0 || m.RecalibrationCount != 0 || m.FallbackTicks != 0 {
			t.Fatalf("fault metrics nonzero without faults: %v %v %v %v",
				m.EstimationErrJ, m.ResidualW, m.RecalibrationCount, m.FallbackTicks)
		}
	})

	t.Run("caller-estimator-untouched", func(t *testing.T) {
		m := build(EngineLockstep, &faults.Spec{WeightScale: []float64{0.5}})
		// The machine's copy is mis-calibrated; the config's estimator
		// (nil here → machine-private perfect copy) must not alias the
		// model weights.
		if m.Est.Weights == m.Model.Weights {
			t.Fatalf("mis-calibration did not apply")
		}
	})
}
