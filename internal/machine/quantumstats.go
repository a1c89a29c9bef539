package machine

import "math/bits"

// Horizon names the planner bound that ended a quantum (see
// planQuantum): the first event horizon that reached the quantum's
// final length.
type Horizon uint8

// The horizon classes.
const (
	// HorizonLimit: nothing nearer than the step's limit, MaxQuantumMS
	// when set, or the end of Run (every lockstep tick).
	HorizonLimit Horizon = iota
	// HorizonMonitor: the next monitor sample.
	HorizonMonitor
	// HorizonFaults: a fault-injection residual window or weight drift.
	HorizonFaults
	// HorizonWake: a sleeper's wake-up.
	HorizonWake
	// HorizonPState: a pending P-state transition.
	HorizonPState
	// HorizonTaskThrottle: §2.3 task throttling engaged (1 ms spans).
	HorizonTaskThrottle
	// HorizonBalance: a balance or idle-pull deadline while tasks wait.
	HorizonBalance
	// HorizonGovernor: a DVFS governor deadline.
	HorizonGovernor
	// HorizonSlice: a running task's timeslice expiry that dispatches
	// another queued task; a same-task expiry is a window's interior
	// event (Interior).
	HorizonSlice
	// HorizonWarmup: the end of a migration's cache-warmup penalty.
	HorizonWarmup
	// HorizonRate: a running task's event-rate change, a window's
	// interior event that ends no quantum (Interior).
	HorizonRate
	// HorizonStop: a running task's completion, or its block while a
	// task is queued somewhere, while an SMT sibling executes, or in a
	// crossing tick run ahead; any other block is a window's interior
	// event (Interior), and its wake-up ends the window (HorizonWake).
	HorizonStop
	// HorizonHotSource: a hot check that may find its core at the
	// trigger, with no destination bound to rule it out (a negative
	// estimate, or per-package thermal calibrations).
	HorizonHotSource
	// HorizonHotDest: a hot check that may find its core at the
	// trigger and some other core considerably cooler.
	HorizonHotDest
	// HorizonThrottle: a predicted scalar throttle flip.
	HorizonThrottle
	// HorizonUnit: a possible unit-temperature throttle flip.
	HorizonUnit

	// NumHorizons is the number of horizon classes.
	NumHorizons
)

var horizonNames = [NumHorizons]string{
	"limit", "monitor", "faults", "wake", "pstate", "task-throttle",
	"balance", "governor", "slice", "warmup", "rate", "stop",
	"hot-source", "hot-dest", "throttle", "unit",
}

func (h Horizon) String() string {
	if h < NumHorizons {
		return horizonNames[h]
	}
	return "horizon(?)"
}

// QuantumStats attributes the quanta a machine steps: how many, over
// how many simulated milliseconds, which horizon bound each, and how
// long they were. It is diagnostics, not simulation state: attaching
// one changes no decision, and checkpoints do not carry it.
type QuantumStats struct {
	Quanta int64
	SimMS  int64
	// ByHorizon counts quanta per binding horizon class.
	ByHorizon [NumHorizons]int64
	// Lengths is a histogram of quantum lengths: bucket i counts quanta
	// of [2^i, 2^(i+1)) milliseconds.
	Lengths [64]int64
	// Interior counts the local events that windows stepped over inside
	// a quantum instead of ending it, by class: timeslice expiries
	// (HorizonSlice), rate crossings (HorizonRate) and blocks while
	// nothing is queued (HorizonStop; see window.go).
	Interior [NumHorizons]int64
}

func (s *QuantumStats) add(dt int64, why Horizon) {
	s.Quanta++
	s.SimMS += dt
	s.ByHorizon[why]++
	s.Lengths[bits.Len64(uint64(dt))-1]++
}

// Share returns the fraction of quanta bound by horizon h.
func (s *QuantumStats) Share(h Horizon) float64 {
	if s.Quanta == 0 {
		return 0
	}
	return float64(s.ByHorizon[h]) / float64(s.Quanta)
}

// MeanMS returns the average quantum length in milliseconds.
func (s *QuantumStats) MeanMS() float64 {
	if s.Quanta == 0 {
		return 0
	}
	return float64(s.SimMS) / float64(s.Quanta)
}
