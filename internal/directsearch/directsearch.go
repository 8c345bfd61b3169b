// Package directsearch implements the direct search methods the paper
// applies to throughput optimization: compass (pattern) search and
// Nelder–Mead, over bounded integer domains. (Coordinate descent, the
// paper's Algorithm 1, is tuner.CDStrategy.)
//
// The optimizers are *maximizers* driven through an ask/tell
// (Suggest/Observe) interface, because the objective — the throughput
// of a live data transfer over one control epoch — is evaluated by the
// caller, not by a function the optimizer can invoke. This also makes
// the methods trivially reusable offline; Maximize adapts a Searcher
// to an ordinary objective function.
//
// The paper's fBnd operation (round to integers, project to bounds) is
// Box.Clamp. None of the methods keeps history beyond its working set,
// so regions can be revisited as the external load evolves — the
// property the paper calls out as the reason direct search suits this
// problem.
package directsearch

import (
	"fmt"

	"dstune/internal/ivec"
)

// Searcher is the ask/tell interface shared by all methods.
//
// Protocol: call Suggest; if done is false, evaluate the objective at
// x and call Observe with the value (larger is better); repeat.
// Suggest is idempotent — calling it again before Observe returns the
// same pending point. Observe without a pending point panics.
type Searcher interface {
	// Suggest returns the next point to evaluate, or done=true when
	// the search has converged (x is then nil).
	Suggest() (x []int, done bool)
	// Observe supplies the objective value for the pending point.
	Observe(f float64)
	// Best returns the best point and value observed so far.
	Best() ([]int, float64)
}

// evalCap caps the objective evaluations of a compass or Nelder–Mead
// search, as a safety net against cycling on a noisy objective: the
// search is done once it has asked for this many.
const evalCap = 10000

// Maximize drives s to completion against objective f and returns the
// best point and value. maxEvals <= 0 means no cap beyond the
// searcher's own termination.
func Maximize(s Searcher, f func([]int) float64, maxEvals int) ([]int, float64) {
	for evals := 0; maxEvals <= 0 || evals < maxEvals; evals++ {
		x, done := s.Suggest()
		if done {
			break
		}
		s.Observe(f(x))
	}
	return s.Best()
}

// Box is an axis-aligned bounded integer domain.
type Box struct {
	lo, hi []int
}

// NewBox returns the domain [lo[i], hi[i]] per dimension.
func NewBox(lo, hi []int) (Box, error) {
	if len(lo) == 0 || len(lo) != len(hi) {
		return Box{}, fmt.Errorf("directsearch: bounds must be non-empty and equal length, got %d/%d", len(lo), len(hi))
	}
	for i := range lo {
		if lo[i] > hi[i] {
			return Box{}, fmt.Errorf("directsearch: dimension %d has lo %d > hi %d", i, lo[i], hi[i])
		}
	}
	return Box{lo: ivec.Clone(lo), hi: ivec.Clone(hi)}, nil
}

// MustBox is NewBox that panics on error, for statically correct
// bounds.
func MustBox(lo, hi []int) Box {
	b, err := NewBox(lo, hi)
	if err != nil {
		panic(err)
	}
	return b
}

// Dim returns the number of dimensions.
func (b Box) Dim() int { return len(b.lo) }

// Lo returns the lower bound of dimension i.
func (b Box) Lo(i int) int { return b.lo[i] }

// Hi returns the upper bound of dimension i.
func (b Box) Hi(i int) int { return b.hi[i] }

// Clamp is the paper's fBnd: it rounds each coordinate to the nearest
// integer (halves away from zero) and projects it onto the bounds,
// returning a fresh slice.
func (b Box) Clamp(x []float64) []int {
	out := make([]int, len(x))
	for i, v := range x {
		r := int(roundHalfAway(v))
		if i < len(b.lo) {
			if r < b.lo[i] {
				r = b.lo[i]
			}
			if r > b.hi[i] {
				r = b.hi[i]
			}
		}
		out[i] = r
	}
	return out
}

// ClampInt projects an integer point onto the bounds, returning a
// fresh slice.
func (b Box) ClampInt(x []int) []int {
	out := make([]int, len(x))
	for i, v := range x {
		if i < len(b.lo) {
			if v < b.lo[i] {
				v = b.lo[i]
			}
			if v > b.hi[i] {
				v = b.hi[i]
			}
		}
		out[i] = v
	}
	return out
}

// roundHalfAway rounds to the nearest integer with halves away from
// zero, e.g. 3.8 -> 4, -1.5 -> -2, matching the paper's example
// "(3.8, 9.2) is rounded off to (4, 9)".
func roundHalfAway(v float64) float64 {
	if v >= 0 {
		return float64(int(v + 0.5))
	}
	return -float64(int(-v + 0.5))
}

// pending tracks the ask/tell handshake shared by the searchers.
type pending struct {
	x   []int
	set bool
}

// propose records x as the outstanding suggestion.
func (p *pending) propose(x []int) {
	p.x = ivec.Clone(x)
	p.set = true
}

// take clears and returns the outstanding suggestion.
func (p *pending) take() []int {
	if !p.set {
		panic("directsearch: Observe called without a pending Suggest")
	}
	p.set = false
	return p.x
}

// best tracks the best observation.
type best struct {
	x []int
	f float64
	n int
}

// update folds in one observation.
func (b *best) update(x []int, f float64) {
	b.n++
	if b.n == 1 || f > b.f {
		b.x = ivec.Clone(x)
		b.f = f
	}
}
