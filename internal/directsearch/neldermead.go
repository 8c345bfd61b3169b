package directsearch

import (
	"sort"

	"dstune/internal/ivec"
)

// The reflection, expansion, contraction and shrink coefficients: the
// customary values, which the paper sets.
const (
	coefR = 1.0
	coefE = 2.0
	coefC = 0.5
	coefS = 0.5
)

// NMConfig parameterizes Nelder–Mead search.
type NMConfig struct {
	// InitStep is the offset used to build the initial simplex around
	// the starting point; zero selects 8 (comparable to the paper's
	// compass lambda, giving the "large steps in the beginning" the
	// paper observes for nm-tuner).
	InitStep float64
}

// withDefaults returns cfg with zero fields replaced by defaults.
func (c NMConfig) withDefaults() NMConfig {
	if c.InitStep == 0 {
		c.InitStep = 8
	}
	return c
}

// nmPhase is the state of the Nelder–Mead machine between
// evaluations.
type nmPhase int

const (
	nmInit nmPhase = iota
	nmReflect
	nmExpand
	nmContract
	nmShrink
	nmDone
)

// vertex is one simplex vertex with its observed value.
type vertex struct {
	x []int
	f float64
}

// NelderMead implements Algorithm 3's inner NELDER-MEAD procedure: a
// simplex of m+1 integer vertices navigated by rounded reflection,
// expansion, contraction, and shrink operations (fBnd applied after
// each), maximizing the objective. The search terminates when the
// simplex degenerates to a single point.
type NelderMead struct {
	box Box
	cfg NMConfig

	verts []vertex
	phase nmPhase

	initIdx   int // next vertex to evaluate during nmInit
	shrinkIdx int // next vertex to evaluate during nmShrink
	centroid  []float64
	xr        []int // reflection point
	fr        float64
	xe        []int // expansion point
	xc        []int // contraction point

	pend  pending
	best  best
	evals int
}

// NewNelderMead returns a Nelder–Mead search whose initial simplex is
// start plus one vertex offset by InitStep along each dimension, all
// clamped to box.
func NewNelderMead(start []int, box Box, cfg NMConfig) *NelderMead {
	nm := &NelderMead{box: box, cfg: cfg.withDefaults()}
	m := box.Dim()
	s := box.ClampInt(start)
	nm.verts = make([]vertex, m+1)
	nm.verts[0] = vertex{x: s}
	for j := 0; j < m; j++ {
		x := ivec.ToFloat(s)
		x[j] += nm.cfg.InitStep
		v := box.Clamp(x)
		if ivec.Equal(v, s) {
			// Offset collapsed against the upper bound; go the other
			// way so the simplex is not born degenerate.
			x[j] = float64(s[j]) - nm.cfg.InitStep
			v = box.Clamp(x)
		}
		nm.verts[j+1] = vertex{x: v}
	}
	return nm
}

// degenerate reports whether all vertices coincide.
func (nm *NelderMead) degenerate() bool {
	for _, v := range nm.verts[1:] {
		if !ivec.Equal(v.x, nm.verts[0].x) {
			return false
		}
	}
	return true
}

// startIteration orders the simplex and proposes the reflection point,
// or finishes when the simplex has degenerated.
func (nm *NelderMead) startIteration() {
	if nm.degenerate() {
		nm.phase = nmDone
		return
	}
	// Order best-first: f0 >= f1 >= ... >= fm (maximizing).
	sort.SliceStable(nm.verts, func(i, j int) bool { return nm.verts[i].f > nm.verts[j].f })
	m := len(nm.verts) - 1
	// Centroid of all vertices except the worst.
	nm.centroid = make([]float64, nm.box.Dim())
	for _, v := range nm.verts[:m] {
		for i, c := range v.x {
			nm.centroid[i] += float64(c)
		}
	}
	for i := range nm.centroid {
		nm.centroid[i] /= float64(m)
	}
	// Reflect: xr = centroid + R*(centroid - worst).
	worst := nm.verts[m].x
	x := make([]float64, len(nm.centroid))
	for i := range x {
		x[i] = nm.centroid[i] + coefR*(nm.centroid[i]-float64(worst[i]))
	}
	nm.xr = nm.box.Clamp(x)
	nm.phase = nmReflect
}

// replaceWorst swaps the worst vertex for (x, f) and begins the next
// iteration.
func (nm *NelderMead) replaceWorst(x []int, f float64) {
	nm.verts[len(nm.verts)-1] = vertex{x: ivec.Clone(x), f: f}
	nm.startIteration()
}

// proposeContract computes the contraction point per the paper: toward
// the better of the worst vertex and the reflection point.
func (nm *NelderMead) proposeContract() {
	worst := nm.verts[len(nm.verts)-1]
	xt := ivec.ToFloat(worst.x)
	if nm.fr >= worst.f {
		xt = ivec.ToFloat(nm.xr)
	}
	x := make([]float64, len(nm.centroid))
	for i := range x {
		x[i] = nm.centroid[i] + coefC*(xt[i]-nm.centroid[i])
	}
	nm.xc = nm.box.Clamp(x)
	nm.phase = nmContract
}

// beginShrink moves every vertex except the best toward the best and
// schedules their re-evaluation.
func (nm *NelderMead) beginShrink() {
	x0 := nm.verts[0].x
	for j := 1; j < len(nm.verts); j++ {
		x := make([]float64, len(x0))
		for i := range x {
			x[i] = float64(x0[i]) + coefS*(float64(nm.verts[j].x[i])-float64(x0[i]))
		}
		nm.verts[j].x = nm.box.Clamp(x)
	}
	nm.shrinkIdx = 1
	nm.phase = nmShrink
}

// Suggest implements Searcher.
func (nm *NelderMead) Suggest() ([]int, bool) {
	if nm.phase == nmDone {
		return nil, true
	}
	if nm.pend.set {
		return ivec.Clone(nm.pend.x), false
	}
	if nm.evals >= evalCap {
		nm.phase = nmDone
		return nil, true
	}
	switch nm.phase {
	case nmInit:
		nm.pend.propose(nm.verts[nm.initIdx].x)
	case nmReflect:
		nm.pend.propose(nm.xr)
	case nmExpand:
		nm.pend.propose(nm.xe)
	case nmContract:
		nm.pend.propose(nm.xc)
	case nmShrink:
		nm.pend.propose(nm.verts[nm.shrinkIdx].x)
	}
	return ivec.Clone(nm.pend.x), false
}

// Observe implements Searcher.
func (nm *NelderMead) Observe(f float64) {
	x := nm.pend.take()
	nm.evals++
	nm.best.update(x, f)

	switch nm.phase {
	case nmInit:
		nm.verts[nm.initIdx].f = f
		nm.initIdx++
		if nm.initIdx == len(nm.verts) {
			nm.startIteration()
		}

	case nmReflect:
		nm.fr = f
		fBest := nm.verts[0].f
		fWorst := nm.verts[len(nm.verts)-1].f
		switch {
		case fBest >= f && f > fWorst:
			// Between best and worst: accept the reflection.
			nm.replaceWorst(nm.xr, f)
		case f < fBest:
			// No better than the worst: contract.
			nm.proposeContract()
		default:
			// New best: try to expand further.
			xe := make([]float64, len(nm.centroid))
			for i := range xe {
				xe[i] = nm.centroid[i] + coefE*(float64(nm.xr[i])-nm.centroid[i])
			}
			nm.xe = nm.box.Clamp(xe)
			nm.phase = nmExpand
		}

	case nmExpand:
		if f >= nm.fr {
			nm.replaceWorst(nm.xe, f)
		} else {
			// Expansion fell short of the reflection; contract toward
			// the reflection point (the paper's step 4 fall-through).
			nm.proposeContract()
		}

	case nmContract:
		if f >= nm.verts[len(nm.verts)-1].f {
			nm.replaceWorst(nm.xc, f)
		} else {
			nm.beginShrink()
		}

	case nmShrink:
		nm.verts[nm.shrinkIdx].f = f
		nm.shrinkIdx++
		if nm.shrinkIdx == len(nm.verts) {
			nm.startIteration()
		}
	}
}

// Best implements Searcher.
func (nm *NelderMead) Best() ([]int, float64) { return ivec.Clone(nm.best.x), nm.best.f }
