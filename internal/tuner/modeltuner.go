package tuner

import (
	"encoding/json"

	"dstune/internal/ivec"
	"dstune/internal/model"
	"dstune/internal/xfer"
)

// Phases of the model strategy.
const (
	modelPhaseSample = "sample" // probing the sample points
	modelPhaseHold   = "hold"   // holding the fitted optimum
)

// ModelState is the serializable state of the model strategy: the
// sampling progress, the accumulated (stream count, throughput)
// samples, the chosen stream count, and the ε-monitor.
type ModelState struct {
	// Phase is the tuner phase: sample or hold.
	Phase string `json:"phase"`
	// Idx is the next sample point to probe (sample phase).
	Idx int `json:"idx"`
	// Ns and Th are the samples collected so far this sweep.
	Ns []int `json:"ns,omitempty"`
	// Th holds the throughputs paired with Ns.
	Th []float64 `json:"th,omitempty"`
	// BestN and BestF track the best probe of the sweep, the fallback
	// when the curve fit is degenerate.
	BestN int `json:"best_n"`
	// BestF is BestN's fitness.
	BestF float64 `json:"best_f"`
	// N is the chosen stream count (hold phase).
	N int `json:"n"`
	// Monitor is the ε-monitor state (armed flag and baseline).
	Monitor Monitor `json:"monitor"`
	// Next is the vector Propose returns.
	Next []int `json:"next"`
}

// ModelStrategy is the empirical-approach baseline from the paper's
// related work (Yildirim et al. [27], Yin et al. [28]): sample the
// throughput at a few exponentially spaced stream counts, fit the
// parallel-stream curve Th(n) = n/sqrt(a*n^2+b*n+c), jump to the
// fitted optimum, and hold. The ε-monitor re-samples when consecutive
// epoch throughputs diverge, giving the empirical approach its best
// shot at the adaptivity the paper says it lacks ("collected data may
// become obsolete when the external conditions change").
//
// The model covers one parameter — the first coordinate of the tuned
// vector (the stream count); remaining coordinates stay at Start.
type ModelStrategy struct {
	cfg    Config
	rest   []int
	points []int
	st     ModelState
}

// NewModelStrategy returns a model-fitting strategy.
func NewModelStrategy(cfg Config) *ModelStrategy {
	cfg = cfg.withDefaults()
	m := &ModelStrategy{
		cfg:    cfg,
		rest:   cfg.Box.ClampInt(cfg.Start),
		points: samplePoints(cfg),
	}
	m.st.Monitor.Tolerance = cfg.Tolerance
	m.beginSample()
	return m
}

// samplePoints returns exponentially spaced probe values for the
// first coordinate: lo, 4*lo, 16*lo, ... clamped to the box, at least
// three distinct values.
func samplePoints(cfg Config) []int {
	lo, hi := cfg.Box.Lo(0), cfg.Box.Hi(0)
	if lo < 1 {
		lo = 1
	}
	var pts []int
	seen := map[int]bool{}
	for v := lo; v <= hi; v *= 4 {
		if !seen[v] {
			pts = append(pts, v)
			seen[v] = true
		}
		if v > hi/4 {
			break
		}
	}
	if !seen[hi] {
		pts = append(pts, hi)
	}
	// Guarantee at least three distinct points when the box allows.
	for _, extra := range []int{lo + 1, (lo + hi) / 2} {
		if len(pts) >= 3 {
			break
		}
		if extra >= lo && extra <= hi && !seen[extra] {
			pts = append(pts, extra)
			seen[extra] = true
		}
	}
	return pts
}

// withN substitutes n into the first coordinate.
func (m *ModelStrategy) withN(n int) []int {
	x := ivec.Clone(m.rest)
	x[0] = n
	return m.cfg.Box.ClampInt(x)
}

// beginSample starts a sampling sweep over the probe points.
func (m *ModelStrategy) beginSample() {
	m.st.Phase = modelPhaseSample
	m.st.Idx = 0
	m.st.Ns, m.st.Th = nil, nil
	m.st.BestN, m.st.BestF = m.points[0], -1.0
	m.st.Monitor.Disarm()
	m.st.Next = m.withN(m.points[0])
}

// Name implements Strategy.
func (m *ModelStrategy) Name() string { return "model" }

// Propose implements Strategy.
func (m *ModelStrategy) Propose() ([]int, bool) { return ivec.Clone(m.st.Next), false }

// Observe implements Strategy.
func (m *ModelStrategy) Observe(rep xfer.Report) {
	f := fitnessOf(m.cfg, rep)
	st := &m.st
	switch st.Phase {
	case modelPhaseSample:
		n := m.points[st.Idx]
		st.Ns = append(st.Ns, n)
		st.Th = append(st.Th, f)
		if f > st.BestF {
			st.BestN, st.BestF = n, f
		}
		st.Idx++
		if st.Idx < len(m.points) {
			st.Next = m.withN(m.points[st.Idx])
			return
		}
		st.N = m.fit()
		st.Phase = modelPhaseHold
		st.Monitor.Disarm()
		st.Next = m.withN(st.N)
	case modelPhaseHold:
		last := st.Monitor.Last
		if st.Monitor.Observe(f) {
			m.cfg.Obs.Retrigger(rep.End, delta(last, f))
			m.beginSample()
		}
	}
}

// fit returns the chosen stream count from the collected samples: the
// fitted optimum, or the best sampled point when the fit is
// degenerate.
func (m *ModelStrategy) fit() int {
	co, err := model.Fit(m.st.Ns, m.st.Th)
	if err != nil {
		// Degenerate fit: fall back to the best probe.
		return m.st.BestN
	}
	return co.Optimum(m.cfg.Box.Lo(0), m.cfg.Box.Hi(0))
}

// Snapshot implements Strategy.
func (m *ModelStrategy) Snapshot() (json.RawMessage, error) { return json.Marshal(m.st) }
