package tuner

import (
	"encoding/json"

	"dstune/internal/ivec"
	"dstune/internal/xfer"
)

// Phases of the cd-tuner state machine.
const (
	cdPhaseStart = "start" // evaluating x0
	cdPhaseProbe = "probe" // evaluating the initial upward probe
	cdPhaseWalk  = "walk"  // the steady ±1 walk
)

// CDState is the serializable state of the cd-tuner: the last two
// (vector, fitness) pairs the walk compares, the stall rotation, and
// the precomputed next proposal.
type CDState struct {
	// Phase is the tuner phase: probe or walk.
	Phase string `json:"phase"`
	// XPrev2 and F2 are the older of the two compared epochs.
	XPrev2 []int `json:"x_prev2,omitempty"`
	// F2 is XPrev2's fitness.
	F2 float64 `json:"f2,omitempty"`
	// XPrev and F1 are the newer of the two compared epochs.
	XPrev []int `json:"x_prev,omitempty"`
	// F1 is XPrev's fitness.
	F1 float64 `json:"f1,omitempty"`
	// Rotation tracks the active coordinate and its stall count.
	Rotation Rotation `json:"rotation"`
	// Next is the vector Propose returns.
	Next []int `json:"next"`
}

// CDStrategy is the coordinate-descent tuner of the paper's
// Algorithm 1 as a propose/observe state machine: a ±1 walk on one
// parameter driven by the sign of the relative change between the
// last two epoch throughputs.
//
//   - Same vector twice with a significant throughput change (new
//     congestion or freed bandwidth): probe upward.
//   - Vector changed and the throughput slope is significantly
//     positive: keep moving the same way (+1).
//   - Vector changed and the slope is significantly negative: the
//     parameter overshot (the source became the bottleneck): step
//     back (-1).
//   - Otherwise: hold.
//
// For multi-parameter tuning (the paper's §IV-B extension) the walk
// applies to one coordinate at a time, rotating to the next after
// stallEpochs (3) consecutive holds and probing the new coordinate once.
type CDStrategy struct {
	cfg Config
	st  CDState
}

// NewCDStrategy returns a cd-tuner strategy.
func NewCDStrategy(cfg Config) *CDStrategy {
	cfg = cfg.withDefaults()
	return &CDStrategy{cfg: cfg, st: CDState{
		Phase: cdPhaseStart,
		Next:  cfg.Box.ClampInt(cfg.Start),
	}}
}

// Name implements Strategy.
func (c *CDStrategy) Name() string { return "cd-tuner" }

// Propose implements Strategy.
func (c *CDStrategy) Propose() ([]int, bool) { return ivec.Clone(c.st.Next), false }

// step moves the active coordinate of x by d within bounds.
func (c *CDStrategy) step(x []int, d int) []int {
	out := ivec.Clone(x)
	out[c.st.Rotation.Dim] += d
	return c.cfg.Box.ClampInt(out)
}

// Observe implements Strategy.
func (c *CDStrategy) Observe(rep xfer.Report) {
	f := fitnessOf(c.cfg, rep)
	switch c.st.Phase {
	case cdPhaseStart:
		// Lines 7-11: x0 evaluated; probe upward next.
		c.st.XPrev2, c.st.F2 = c.st.Next, f
		c.st.Next = c.step(c.st.XPrev2, +1)
		c.st.Phase = cdPhaseProbe
	case cdPhaseProbe:
		c.st.XPrev, c.st.F1 = c.st.Next, f
		c.st.Phase = cdPhaseWalk
		c.st.Next = c.decide()
	case cdPhaseWalk:
		c.st.XPrev2, c.st.F2 = c.st.XPrev, c.st.F1
		c.st.XPrev, c.st.F1 = c.st.Next, f
		c.st.Next = c.decide()
	}
}

// decide is the walk's decision kernel: compare the last two epochs
// and pick the next vector, rotating the active coordinate after
// repeated holds.
func (c *CDStrategy) decide() []int {
	st := &c.st
	dim := st.Rotation.Dim
	// Line 13: relative change between the last two epochs.
	dc := delta(st.F2, st.F1)

	var next []int
	moved := st.XPrev[dim] != st.XPrev2[dim]
	switch {
	case !moved && (dc > c.cfg.Tolerance || dc < -c.cfg.Tolerance):
		// External conditions shifted while we held still: probe.
		next = c.step(st.XPrev, +1)
	case moved:
		// Line 15: slope per unit move of the active coordinate.
		slope := dc / float64(st.XPrev[dim]-st.XPrev2[dim])
		switch {
		case slope > c.cfg.Tolerance:
			next = c.step(st.XPrev, +1)
		case slope < -c.cfg.Tolerance:
			next = c.step(st.XPrev, -1)
		default:
			next = st.XPrev
		}
	default:
		next = st.XPrev
	}

	// Multi-parameter extension: rotate after repeated holds.
	if ivec.Equal(next, st.XPrev) {
		if st.Rotation.Hold(c.cfg.Box.Dim()) {
			next = c.step(st.XPrev, +1) // probe the fresh coordinate once
		}
	} else {
		st.Rotation.Progress()
	}
	return next
}

// Snapshot implements Strategy.
func (c *CDStrategy) Snapshot() (json.RawMessage, error) { return json.Marshal(c.st) }
