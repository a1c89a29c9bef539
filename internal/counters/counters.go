// Package counters models the event monitoring counters (performance
// monitoring counters) of a Pentium 4–class processor, the only hardware
// prerequisite of the paper's approach (§2.1, §3.2).
//
// Real event counters count processor-internal events — retired µops,
// cache misses, bus transactions — that correspond to activity, and hence
// energy, on the chip. In this reproduction the "hardware" is the
// workload simulator: each simulated task emits a vector of event counts
// per millisecond of execution, and each logical CPU accumulates those
// counts into a Bank that the energy estimator reads exactly the way the
// paper's kernel reads MSRs at task-switch and timeslice boundaries.
//
// As on the Pentium 4 (§4.7), events are attributed to the logical CPU
// that caused them, so SMT siblings have separate banks.
package counters

import "fmt"

// Event identifies one countable event class. The set is modeled on the
// events used for energy estimation on the Pentium 4 in Bellosa et al.
// [8]: they cover the major energy sinks of the chip.
type Event int

const (
	// Cycles counts non-halted clock cycles.
	Cycles Event = iota
	// UopsRetired counts retired micro-operations (integer pipeline).
	UopsRetired
	// FPOps counts retired floating-point operations.
	FPOps
	// L2Misses counts second-level cache misses.
	L2Misses
	// MemTransactions counts front-side-bus memory transactions.
	MemTransactions
	// Branches counts retired branch instructions.
	Branches
	// NumEvents is the number of distinct event classes.
	NumEvents
)

var eventNames = [NumEvents]string{
	"cycles", "uops_retired", "fp_ops", "l2_misses", "mem_transactions", "branches",
}

// String returns the mnemonic name of the event.
func (e Event) String() string {
	if e < 0 || e >= NumEvents {
		return fmt.Sprintf("event(%d)", int(e))
	}
	return eventNames[e]
}

// Counts is a vector of accumulated event counts, one slot per Event.
type Counts [NumEvents]uint64

// Add returns the element-wise sum c + d.
func (c Counts) Add(d Counts) Counts {
	for i := range c {
		c[i] += d[i]
	}
	return c
}

// Accum adds d into c in place — the copy-free variant of Add for the
// engine's per-quantum accounting, where the value-receiver Add would
// copy the vector twice per busy CPU per quantum.
func (c *Counts) Accum(d *Counts) {
	for i := range c {
		c[i] += d[i]
	}
}

// Sub returns the element-wise difference c - d. It panics if any
// component of d exceeds the corresponding component of c, because a
// counter delta with a negative component indicates a bookkeeping bug
// (hardware counters only move forward between resets).
func (c Counts) Sub(d Counts) Counts {
	for i := range c {
		if d[i] > c[i] {
			panic(fmt.Sprintf("counters: negative delta for %v: %d - %d", Event(i), c[i], d[i]))
		}
		c[i] -= d[i]
	}
	return c
}

// IsZero reports whether all components are zero.
func (c Counts) IsZero() bool {
	for _, v := range c {
		if v != 0 {
			return false
		}
	}
	return true
}

// Frac is a vector of exact (fractional) event counts. The workload
// simulator accrues events continuously and emits integer Counts by
// flooring a cumulative accumulator; Frac carries the exact per-interval
// deltas so energy integration over a multi-millisecond quantum does not
// depend on where the integer rounding boundaries fall.
type Frac [NumEvents]float64

// Add returns the element-wise sum f + g.
func (f Frac) Add(g Frac) Frac {
	for i := range f {
		f[i] += g[i]
	}
	return f
}

// Rates is a vector of event rates, in events per millisecond of
// execution. Workload phases are described by Rates; the simulator
// converts them to Counts as tasks run.
type Rates [NumEvents]float64

// Scale returns the rates multiplied by f. It is used for SMT contention
// (a thread sharing a core with a busy sibling makes proportionally less
// progress and emits proportionally fewer events) and for cache-warmup
// slowdown after a migration.
func (r Rates) Scale(f float64) Rates {
	for i := range r {
		r[i] *= f
	}
	return r
}

// Add returns the element-wise sum r + s.
func (r Rates) Add(s Rates) Rates {
	for i := range r {
		r[i] += s[i]
	}
	return r
}

// IsZero reports whether every rate is zero — a phase that emits no
// events at all, which a calibration set must reject.
func (r Rates) IsZero() bool {
	for _, v := range r {
		if v != 0 {
			return false
		}
	}
	return true
}

// Counts converts the rates to integer event counts for dt milliseconds
// of execution, rounding each component to the nearest integer.
func (r Rates) Counts(dt float64) Counts {
	var c Counts
	for i := range r {
		v := r[i] * dt
		if v < 0 {
			v = 0
		}
		c[i] = uint64(v + 0.5)
	}
	return c
}

// Bank is the set of event monitoring counters of one logical CPU.
// The zero value is a bank with all counters at zero.
//
// Like the hardware it models, a Bank only accumulates; readers that
// want per-interval deltas snapshot the bank at interval boundaries and
// subtract (see Snapshot).
type Bank struct {
	counts Counts
}

// Accumulate adds the given event counts to the bank.
func (b *Bank) Accumulate(c Counts) {
	b.counts.Accum(&c)
}

// AccumulateFrom adds *c to the bank without copying the vector — the
// hot-path variant of Accumulate.
func (b *Bank) AccumulateFrom(c *Counts) {
	b.counts.Accum(c)
}

// Read returns the current accumulated counts without modifying them.
func (b *Bank) Read() Counts {
	return b.counts
}

// Reset clears all counters to zero.
func (b *Bank) Reset() {
	b.counts = Counts{}
}
