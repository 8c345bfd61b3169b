// Package sim provides the small deterministic kernel shared by the
// network and endpoint simulators: a seeded random number source and a
// fixed-step virtual clock.
//
// Everything in this repository that involves randomness draws from a
// sim.RNG created from an explicit seed, so every experiment is exactly
// reproducible. The clock measures virtual seconds as float64 values;
// simulation rates are expressed in bytes per (virtual) second.
package sim

import "math/rand/v2"

// RNG is a deterministic random source: a math/rand/v2 PCG with the
// draws the simulators need on top. It promotes the PCG's Uint64 (a
// uniform 64-bit value) and MarshalBinary / UnmarshalBinary, which
// capture and restore the generator's exact position in its stream.
// The zero value is not usable; construct with NewRNG.
type RNG struct {
	*rand.PCG
	r *rand.Rand // the same PCG, for the draws math/rand/v2 derives
}

// NewRNG returns a generator seeded from seed. Two RNGs built from the
// same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	// Derive the second PCG word from the first with SplitMix64 so that
	// nearby seeds give unrelated streams.
	src := rand.NewPCG(seed, splitmix64(seed))
	return &RNG{PCG: src, r: rand.New(src)}
}

// splitmix64 is the finalizer of the SplitMix64 generator, used only to
// expand a single seed word into two.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform value in [0, 1): math/rand/v2's
// Rand.Float64, read straight from the PCG.
func (g *RNG) Float64() float64 { return Unit(g.Uint64()) }

// Unit maps a uniform 64-bit draw onto [0, 1) exactly as math/rand/v2's
// Rand.Float64 does, so Unit(g.Uint64()) is g.Float64(). The network
// simulator's loss clock writes its draw that way: Float64 is over the
// compiler's inlining budget, and a call there spills every live
// register.
func Unit(u uint64) float64 { return float64(u<<11>>11) / (1 << 53) }

// ExpFloat64 returns an exponentially distributed value with rate 1:
// math/rand/v2's Rand.ExpFloat64 on the same PCG.
func (g *RNG) ExpFloat64() float64 { return g.r.ExpFloat64() }

// IntN returns a uniform value in [0, n). It panics if n <= 0.
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// Bernoulli reports true with probability p. Values of p outside [0, 1]
// are clamped.
func (g *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.Float64() < p
}

// Jitter returns x scaled by a uniform factor in [1-frac, 1+frac].
// It is used to desynchronize otherwise identical streams.
func (g *RNG) Jitter(x, frac float64) float64 {
	if frac <= 0 {
		return x
	}
	return x * (1 + frac*(2*g.Float64()-1))
}

// NormFloat64 returns a standard normal variate.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Split returns a new RNG whose stream is independent of g's future
// output. It is used to give each subsystem its own source so that
// adding draws in one subsystem does not perturb another.
func (g *RNG) Split() *RNG {
	return NewRNG(g.Uint64())
}
