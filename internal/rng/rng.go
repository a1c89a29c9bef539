// Package rng provides a small, deterministic pseudo-random number
// generator used by every stochastic component of the simulator.
//
// All randomness in the reproduction flows through this package so that
// every experiment is replayable from a single seed: the same seed always
// produces the same workload phase transitions, measurement noise, and
// therefore the same tables and figures.
//
// The generator is splitmix64 (Steele, Lea, Flood: "Fast Splittable
// Pseudorandom Number Generators", OOPSLA 2014). It is tiny, fast, has a
// 2^64 period, passes BigCrush when used as a 64-bit generator, and —
// crucially for our use — supports cheap splitting into statistically
// independent substreams, which lets each simulated task own a private
// stream regardless of the order in which other tasks consume numbers.
package rng

import "math"

// Source is a deterministic stream of pseudo-random numbers.
// It is not safe for concurrent use; each goroutine or simulated entity
// should own its own Source (use Split to derive one).
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. Two Sources created with the
// same seed produce identical streams.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// golden is the splitmix64 increment (the odd integer closest to 2^64/φ).
const golden = 0x9e3779b97f4a7c15

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += golden
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives a new Source whose stream is statistically independent of
// the parent's. The parent advances by one step.
func (s *Source) Split() *Source {
	return New(s.Uint64())
}

// State returns the generator's internal state, for checkpointing. A
// Source restored with SetState continues the exact stream.
func (s *Source) State() uint64 { return s.state }

// SetState overwrites the generator's internal state with a value
// previously obtained from State.
func (s *Source) SetState(v uint64) { s.state = v }

// Float64 returns a uniformly distributed float64 in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high-quality bits → [0,1) with full double precision.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method, simplified: for our
	// simulation n is tiny compared to 2^64, so modulo bias is far below
	// anything observable; still, use the widening multiply for speed.
	return int((uint64(uint32(s.Uint64())) * uint64(n)) >> 32)
}

// Int63n returns a uniformly distributed int64 in [0, n). It panics if n <= 0.
func (s *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n called with n <= 0")
	}
	return int64(s.Uint64()>>1) % n
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the Box–Muller transform.
func (s *Source) NormFloat64() float64 {
	// Draw until u1 is nonzero so the log is finite.
	var u1 float64
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1
// (mean 1).
func (s *Source) ExpFloat64() float64 {
	var u float64
	for u == 0 {
		u = s.Float64()
	}
	return -math.Log(u)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}
