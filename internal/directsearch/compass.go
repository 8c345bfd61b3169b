package directsearch

import (
	"dstune/internal/ivec"
	"dstune/internal/sim"
)

// CompassConfig parameterizes compass search.
type CompassConfig struct {
	// Lambda is the initial step size; the paper uses 8. Zero selects
	// 8.
	Lambda float64
}

// minLambda is the paper's stop rule: the search terminates once the
// step size drops below 0.5, where the rounded coordinate set
// degenerates to a single point.
const minLambda = 0.5

// withDefaults returns cfg with zero fields replaced by defaults.
func (c CompassConfig) withDefaults() CompassConfig {
	if c.Lambda == 0 {
		c.Lambda = 8
	}
	return c
}

// Compass implements compass (pattern) search, Algorithm 2's inner
// COMPASS-SEARCH procedure: poll the 2m coordinate directions around
// the incumbent at step lambda in random order; move to the first
// improving point, or halve lambda when no direction improves;
// terminate when lambda falls below minLambda.
type Compass struct {
	box    Box
	cfg    CompassConfig
	rng    *sim.RNG
	lambda float64

	incumbent  []int
	fIncumbent float64
	haveInc    bool

	queue [][]int // candidate points remaining at this lambda
	pend  pending
	best  best
	evals int
	done  bool
}

// NewCompass returns a compass search starting at start (clamped to
// box). rng randomizes the polling order; it must not be nil.
func NewCompass(start []int, box Box, cfg CompassConfig, rng *sim.RNG) *Compass {
	c := &Compass{
		box: box,
		cfg: cfg.withDefaults(),
		rng: rng,
	}
	c.lambda = c.cfg.Lambda
	c.incumbent = box.ClampInt(start)
	return c
}

// refill regenerates the candidate queue: the 2m coordinate moves from
// the incumbent at the current lambda, clamped, deduplicated against
// the incumbent, in random order.
func (c *Compass) refill() {
	m := c.box.Dim()
	c.queue = c.queue[:0]
	for _, j := range c.rng.Perm(2 * m) {
		dim := j / 2
		sign := 1.0
		if j%2 == 1 {
			sign = -1
		}
		x := ivec.ToFloat(c.incumbent)
		x[dim] += sign * c.lambda
		cand := c.box.Clamp(x)
		if ivec.Equal(cand, c.incumbent) {
			continue // projection or rounding collapsed the move
		}
		c.queue = append(c.queue, cand)
	}
}

// Suggest implements Searcher.
func (c *Compass) Suggest() ([]int, bool) {
	if c.done {
		return nil, true
	}
	if c.pend.set {
		return ivec.Clone(c.pend.x), false
	}
	if c.evals >= evalCap {
		c.done = true
		return nil, true
	}
	// First evaluation: the starting point itself.
	if !c.haveInc {
		c.pend.propose(c.incumbent)
		return ivec.Clone(c.pend.x), false
	}
	// Keep halving until a pollable candidate exists or we converge.
	for len(c.queue) == 0 {
		c.lambda *= 0.5
		if c.lambda < minLambda {
			c.done = true
			return nil, true
		}
		c.refill()
	}
	c.pend.propose(c.queue[0])
	c.queue = c.queue[1:]
	return ivec.Clone(c.pend.x), false
}

// Observe implements Searcher.
func (c *Compass) Observe(f float64) {
	x := c.pend.take()
	c.evals++
	c.best.update(x, f)
	if !c.haveInc {
		c.haveInc = true
		c.fIncumbent = f
		c.refill()
		return
	}
	if f > c.fIncumbent {
		// Improving point becomes the incumbent; poll around it anew.
		c.incumbent = x
		c.fIncumbent = f
		c.refill()
		return
	}
	if len(c.queue) == 0 {
		// All directions at this lambda failed; halve.
		c.lambda *= 0.5
		if c.lambda < minLambda {
			c.done = true
			return
		}
		c.refill()
	}
}

// Best implements Searcher.
func (c *Compass) Best() ([]int, float64) { return ivec.Clone(c.best.x), c.best.f }
