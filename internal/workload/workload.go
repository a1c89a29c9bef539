// Package workload provides phase-structured synthetic tasks standing in
// for the paper's test programs (Table 2: bitcnts, memrw, aluadd,
// pushpop, openssl, bzip2; Table 1 adds bash, grep, sshd).
//
// The paper's observation (§3.1, citing [7]) is that a task's power
// consumption "is fairly static most of the time, but exhibits changes
// as the task experiences different phases of execution". A Program here
// is exactly that: a set of Phases, each with its own event-rate vector
// (and hence true power), durations, and a Markov transition structure.
// Interactive programs additionally block (give up the CPU) between
// bursts.
//
// Only the *power time series* of a task is visible to the scheduler —
// through event counters — so matching the published per-program powers
// and phase variability reproduces everything the scheduling policy can
// react to.
//
// All stochastic processes of a task (phase durations, noise epochs,
// block points) are indexed by *executed work*, not by wall-clock ticks.
// This makes Tick partition-invariant: executing a task for dt
// milliseconds in one call produces exactly the same state, random-number
// consumption, and cumulative event counts as executing it in any
// sequence of calls summing to dt. The async simulation engine depends
// on this property for its cross-engine equivalence with the 1 ms
// lockstep engine.
package workload

import (
	"fmt"
	"math"

	"energysched/internal/counters"
	"energysched/internal/rng"
)

// Phase is one execution phase of a program.
type Phase struct {
	// Name labels the phase for traces.
	Name string
	// Rates is the event-rate vector (events/ms) at full speed.
	Rates counters.Rates
	// MeanDurMS is the mean phase duration in executed milliseconds.
	// Durations are exponentially distributed around the mean (phase
	// lengths depend on input data, §3.1).
	MeanDurMS float64
	// NoiseFrac is the 1-sigma relative noise applied to dynamic event
	// rates. Noise is redrawn at phase entry and every NoiseEpochMS
	// executed milliseconds, modeling the input-dependent rate drift
	// within a phase.
	NoiseFrac float64
	// BlockProbPerMS is the probability per executed millisecond that
	// the task blocks (waits for I/O or input). Block points are drawn
	// ahead as exponentially distributed executed-work distances, which
	// preserves the per-millisecond blocking rate while keeping the
	// process independent of how execution is partitioned into calls.
	BlockProbPerMS float64
	// MeanBlockMS is the mean blocking duration when a block occurs.
	MeanBlockMS float64
	// Next lists candidate successor phase indices; one is chosen
	// uniformly when the phase ends. An empty Next means "stay in
	// this phase forever".
	Next []int
}

// NoiseEpochMS is the executed-work interval between noise redraws
// within a phase. Successive standard timeslices then average a handful
// of noise epochs, keeping the Table 1 successive-timeslice variability
// in the published ballpark while letting the async engine advance in
// multi-millisecond quanta between rate changes.
const NoiseEpochMS = 250.0

// Program is a static description of an executable, shared by all task
// instances started from the same binary.
type Program struct {
	// Name is the program name (e.g. "bitcnts").
	Name string
	// Binary is the pseudo inode number of the program's binary file,
	// the key of the initial-placement hash table (§4.6).
	Binary uint64
	// Phases holds the phase machine; index 0 is the initial
	// (data-independent) phase that §4.6's placement table learns.
	Phases []Phase
	// WorkMS is the total executed milliseconds a task instance needs
	// to finish; 0 means the task runs until killed. Used by the
	// throughput experiments (§6.2–§6.4).
	WorkMS float64
}

// Validate reports structural errors in the program definition.
func (p *Program) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: program without name")
	}
	if len(p.Phases) == 0 {
		return fmt.Errorf("workload: program %s has no phases", p.Name)
	}
	for i, ph := range p.Phases {
		for _, n := range ph.Next {
			if n < 0 || n >= len(p.Phases) {
				return fmt.Errorf("workload: program %s phase %d has bad successor %d", p.Name, i, n)
			}
		}
		if ph.MeanDurMS < 0 || ph.NoiseFrac < 0 || ph.BlockProbPerMS < 0 || ph.BlockProbPerMS > 1 {
			return fmt.Errorf("workload: program %s phase %d has invalid parameters", p.Name, i)
		}
	}
	return nil
}

// Status describes what a task did during one executed interval.
type Status int

const (
	// Ran: the task executed for the whole interval.
	Ran Status = iota
	// Blocked: the task gave up the CPU to wait at the end of the
	// interval; BlockMS tells for how long.
	Blocked
	// Finished: the task completed its work during this interval.
	Finished
)

// TickResult reports the outcome of one executed interval.
type TickResult struct {
	// Status is what the task did.
	Status Status
	// Counts are the integer events the task generated on its CPU
	// during the interval (scaled by the speed factor). Emission uses a
	// cumulative floor accumulator, so summing the Counts of any
	// partition of an interval yields exactly the Counts of the whole
	// interval — the property the counter Banks rely on.
	Counts counters.Counts
	// Exact are the exact (fractional) events of the interval, before
	// integer emission. The machine's thermal model and thermal-power
	// metric integrate Exact so that a quantum's average power does not
	// depend on integer rounding boundaries.
	Exact counters.Frac
	// BlockMS is the sleep duration when Status == Blocked.
	BlockMS float64
}

// Task is a running instance of a Program with private phase state and
// random stream. It is the unit the scheduler manages.
type Task struct {
	// ID uniquely identifies the task instance.
	ID int
	// Prog is the shared program description.
	Prog *Program

	rng       *rng.Source
	phase     int
	phaseLeft float64 // executed ms remaining in current phase
	doneWork  float64 // executed ms so far (at speed 1)

	noise     float64 // current noise multiplier for dynamic events
	noiseLeft float64 // executed ms until the next noise redraw (+Inf when noiseless)
	runLeft   float64 // executed ms until the next block point (+Inf when non-blocking)

	cum     counters.Frac   // cumulative exact event counts since start
	emitted counters.Counts // integer counts already reported via TickResult
}

// NewTask instantiates a program. Each task gets its own random stream
// so phase evolution is independent of scheduling order.
func NewTask(id int, p *Program, r *rng.Source) *Task {
	t := &Task{ID: id, Prog: p, rng: r, phase: 0}
	t.phaseLeft = t.drawDuration(p.Phases[0])
	t.redrawNoise(&p.Phases[0])
	t.redrawRunLeft(&p.Phases[0])
	return t
}

func (t *Task) drawDuration(ph Phase) float64 {
	if ph.MeanDurMS <= 0 {
		return 0 // treated as an immediate transition on the next tick
	}
	return ph.MeanDurMS * t.rng.ExpFloat64()
}

// redrawNoise samples the phase's rate-noise multiplier for the next
// noise epoch. Noiseless phases run at exactly their nominal rates.
func (t *Task) redrawNoise(ph *Phase) {
	if ph.NoiseFrac <= 0 {
		t.noise = 1
		t.noiseLeft = math.Inf(1)
		return
	}
	n := 1 + ph.NoiseFrac*t.rng.NormFloat64()
	if n < 0 {
		n = 0
	}
	t.noise = n
	t.noiseLeft = NoiseEpochMS
}

// redrawRunLeft samples the executed-work distance to the phase's next
// block point. An exponential distance with rate BlockProbPerMS gives
// the same per-millisecond blocking probability as a Bernoulli draw per
// executed millisecond, but consumes randomness at progress points
// rather than at wall ticks.
func (t *Task) redrawRunLeft(ph *Phase) {
	if ph.BlockProbPerMS <= 0 {
		t.runLeft = math.Inf(1)
		return
	}
	t.runLeft = t.rng.ExpFloat64() / ph.BlockProbPerMS
}

// Phase returns the index of the task's current phase.
func (t *Task) Phase() int { return t.phase }

// PhaseName returns the name of the task's current phase.
func (t *Task) PhaseName() string { return t.Prog.Phases[t.phase].Name }

// DoneWork returns the executed milliseconds so far at full speed.
func (t *Task) DoneWork() float64 { return t.doneWork }

// workFinishSlackMS pulls the work-completion threshold a hair below
// WorkMS. doneWork accumulates in segments whose boundaries depend on
// how the caller partitions wall time into Tick calls, so two engines
// simulating the same history hold doneWork values an ulp or two
// apart. With an integer WorkMS and long full-speed stretches the
// crossing lands exactly on a millisecond boundary, where that ulp
// decides between "finished this tick" and "finished next tick" — a
// systematic divergence. Offsetting the threshold by an amount far
// above the drift (~1e-12 ms) and far below a millisecond moves the
// knife edge off the aligned boundary; both the finish check and
// StopHorizonMS use the offset threshold so the quantum planner stops
// quanta at the same crossing the per-ms engine observes.
const workFinishSlackMS = 1e-7

// workTargetMS is the effective work-completion threshold.
func (t *Task) workTargetMS() float64 { return t.Prog.WorkMS - workFinishSlackMS }

// RateHorizonMS returns the executed milliseconds until the task's
// event rates next change (phase transition or noise redraw), possibly
// +Inf. Within this horizon the task's power is exactly constant, which
// the async engine exploits to integrate whole quanta analytically.
func (t *Task) RateHorizonMS() float64 {
	return math.Min(t.phaseLeft, t.noiseLeft)
}

// StopHorizonMS returns the executed milliseconds until the task stops
// executing (block point or work completion), possibly +Inf.
func (t *Task) StopHorizonMS() float64 {
	return math.Min(t.BlockHorizonMS(), t.FinishHorizonMS())
}

// BlockHorizonMS returns the executed milliseconds until the task's
// next block point, +Inf in a phase that never blocks. A phase change
// before it draws a new one.
func (t *Task) BlockHorizonMS() float64 { return math.Max(t.runLeft, 0) }

// FinishHorizonMS returns the executed milliseconds until the task
// completes its work, +Inf for a task that runs forever.
func (t *Task) FinishHorizonMS() float64 {
	if t.Prog.WorkMS <= 0 {
		return math.Inf(1)
	}
	return math.Max(t.workTargetMS()-t.doneWork, 0)
}

// EffectiveRates returns the task's current event rates per executed
// millisecond with the active noise multiplier applied — the rates the
// next executed interval will accrue until the rate horizon.
func (t *Task) EffectiveRates() counters.Rates {
	r := t.Prog.Phases[t.phase].Rates
	if t.noise != 1 {
		for i := range r {
			if counters.Event(i) != counters.Cycles {
				r[i] *= t.noise
			}
		}
	}
	return r
}

// Tick executes the task for dtMS wall milliseconds at the given speed
// factor (1.0 = exclusive use of a full core; lower when sharing a core
// with an SMT sibling or refilling caches after a migration). It returns
// the events generated and whether the task ran, blocked, or finished.
//
// The executed work speed·dtMS is integrated piecewise across phase
// boundaries, noise epochs, and block points, so the result is
// independent of how a simulated interval is partitioned into Tick
// calls — provided the caller honors the Blocked status (stops
// executing the task until it is re-dispatched), as both simulation
// engines do; a caller that keeps Ticking past a block observes one
// block per call rather than one per crossing. Block and finish take
// effect at the end of the interval: the caller that wants them to land
// on the same wall millisecond as a 1 ms lockstep must not let the
// interval extend beyond the millisecond in which StopHorizonMS is
// reached.
func (t *Task) Tick(speed, dtMS float64) TickResult {
	var res TickResult
	t.TickInto(&res, speed, dtMS)
	return res
}

// TickInto is Tick writing its result into res instead of returning it
// by value — the engine's per-quantum hot path reuses one TickResult
// per step, sparing a ~100-byte struct copy per busy CPU per quantum.
// Every field of res is overwritten.
func (t *Task) TickInto(res *TickResult, speed, dtMS float64) {
	if speed <= 0 || speed > 1 {
		panic(fmt.Sprintf("workload: invalid speed factor %v", speed))
	}
	if dtMS <= 0 {
		panic(fmt.Sprintf("workload: invalid tick duration %v", dtMS))
	}
	prev := t.cum
	exec := speed * dtMS
	blocked := false
	blockMS := 0.0
	for {
		ph := &t.Prog.Phases[t.phase]
		if t.phaseLeft <= 0 {
			t.advancePhase()
			continue
		}
		if exec <= 0 {
			break
		}
		seg := exec
		if t.phaseLeft < seg {
			seg = t.phaseLeft
		}
		if t.noiseLeft < seg {
			seg = t.noiseLeft
		}
		if !blocked && t.runLeft < seg {
			seg = t.runLeft
		}
		for i, r := range ph.Rates {
			if r == 0 {
				continue
			}
			if counters.Event(i) != counters.Cycles {
				r *= t.noise
			}
			t.cum[i] += r * seg
		}
		t.doneWork += seg
		t.phaseLeft -= seg
		t.noiseLeft -= seg
		if !blocked {
			// Once the block point is crossed the task is conceptually
			// stopped; the tail of the interval (the remainder of the
			// crossing millisecond) does not consume the freshly drawn
			// next block distance.
			t.runLeft -= seg
		}
		exec -= seg
		if t.runLeft <= 0 && !blocked && ph.BlockProbPerMS > 0 {
			// Block point crossed: the task yields at the end of this
			// interval. Duration and the next block distance are drawn
			// here, at the crossing's progress point, so the random
			// stream advances identically for any partitioning.
			blocked = true
			blockMS = ph.MeanBlockMS * t.rng.ExpFloat64()
			if blockMS < 1 {
				blockMS = 1
			}
			t.redrawRunLeft(ph)
		}
		if t.phaseLeft > 0 && t.noiseLeft <= 0 {
			t.redrawNoise(ph)
		}
	}
	res.Status = Ran
	res.BlockMS = 0
	for i := range t.cum {
		res.Exact[i] = t.cum[i] - prev[i]
		total := uint64(t.cum[i])
		res.Counts[i] = total - t.emitted[i]
		t.emitted[i] = total
	}
	if t.Prog.WorkMS > 0 && t.doneWork >= t.workTargetMS() {
		res.Status = Finished
		return
	}
	if blocked {
		res.Status = Blocked
		res.BlockMS = blockMS
	}
}

func (t *Task) advancePhase() {
	ph := &t.Prog.Phases[t.phase]
	if len(ph.Next) == 0 {
		// Terminal phase loops forever; just refresh the duration to
		// keep phaseLeft from going very negative.
		t.phaseLeft = t.drawDuration(*ph)
		if t.phaseLeft <= 0 {
			t.phaseLeft = 1
		}
		t.redrawNoise(ph)
		return
	}
	next := ph.Next[t.rng.Intn(len(ph.Next))]
	t.phase = next
	nph := &t.Prog.Phases[next]
	t.phaseLeft = t.drawDuration(*nph)
	if t.phaseLeft <= 0 {
		t.phaseLeft = 1
	}
	t.redrawNoise(nph)
	t.redrawRunLeft(nph)
}
