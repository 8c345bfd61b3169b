package tuner

import (
	"encoding/json"

	"dstune/internal/ivec"
	"dstune/internal/xfer"
)

// Phases of the heuristic state machines.
const (
	heurPhaseStart = "start" // evaluating x0
	heurPhaseLoop  = "loop"  // heur1's climb/hold loop
	heurPhaseClimb = "climb" // heur2's exponential climb
	heurPhaseHold  = "hold"  // heur2 settled
)

// Heur1State is the serializable state of heur1.
type Heur1State struct {
	// Phase is the tuner phase (always the climb/hold loop).
	Phase string `json:"phase"`
	// X is the adopted vector; a rejected probe is not adopted.
	X []int `json:"x"`
	// FPrev is the previous epoch's fitness.
	FPrev float64 `json:"f_prev,omitempty"`
	// Climbing reports whether the next epoch probes upward.
	Climbing bool `json:"climbing"`
	// Rotation tracks the active coordinate and its stall count.
	Rotation Rotation `json:"rotation"`
	// Next is the vector Propose returns.
	Next []int `json:"next"`
}

// Heur1Strategy is Balman & Kosar's dynamic adaptation heuristic [5],
// extended to multiple parameters the same way cd-tuner is (the
// paper's §IV-C): compare the two most recent epoch throughputs and
// additively increase the active parameter by one while the
// comparison shows a significant improvement. The heuristic has no
// decrease mechanism; the paper notes it is a simplified cd-tuner and
// needs many more control epochs to reach comparable throughput.
type Heur1Strategy struct {
	cfg Config
	st  Heur1State
}

// NewHeur1Strategy returns a heur1 strategy.
func NewHeur1Strategy(cfg Config) *Heur1Strategy {
	cfg = cfg.withDefaults()
	return &Heur1Strategy{cfg: cfg, st: Heur1State{
		Phase:    heurPhaseStart,
		Climbing: true,
		Next:     cfg.Box.ClampInt(cfg.Start),
	}}
}

// Name implements Strategy.
func (h *Heur1Strategy) Name() string { return "heur1" }

// Propose implements Strategy.
func (h *Heur1Strategy) Propose() ([]int, bool) { return ivec.Clone(h.st.Next), false }

// Observe implements Strategy.
func (h *Heur1Strategy) Observe(rep xfer.Report) {
	f := fitnessOf(h.cfg, rep)
	st := &h.st
	switch st.Phase {
	case heurPhaseStart:
		st.X, st.FPrev = st.Next, f
		st.Phase = heurPhaseLoop
	case heurPhaseLoop:
		ran := st.Next // the vector this report came from
		dc := delta(st.FPrev, f)
		st.FPrev = f
		if dc > h.cfg.Tolerance {
			// Improvement between consecutive epochs: adopt the bump
			// (if any) and keep climbing.
			st.X = ran
			st.Climbing = true
			st.Rotation.Progress()
			break
		}
		// No significant improvement: stop climbing and hold. A later
		// significant improvement (e.g. external load released)
		// re-arms the climb; a drop never does — heur1 cannot
		// decrease.
		if st.Climbing && !ivec.Equal(ran, st.X) {
			// The rejected probe still ran for an epoch; stay at X.
			st.Climbing = false
		}
		if st.Rotation.Hold(h.cfg.Box.Dim()) {
			st.Climbing = true // probe the fresh coordinate
		}
	}
	if st.Climbing {
		st.Next = bump(h.cfg, st.X, st.Rotation.Dim, +1)
	} else {
		st.Next = ivec.Clone(st.X)
	}
}

// Snapshot implements Strategy.
func (h *Heur1Strategy) Snapshot() (json.RawMessage, error) { return json.Marshal(h.st) }

// Heur2State is the serializable state of heur2.
type Heur2State struct {
	// Phase is the tuner phase: climb or hold.
	Phase string `json:"phase"`
	// X is the settled vector so far.
	X []int `json:"x"`
	// Best is the best fitness seen during the climb.
	Best float64 `json:"best,omitempty"`
	// Dim is the coordinate currently being doubled.
	Dim int `json:"dim"`
	// Next is the vector Propose returns.
	Next []int `json:"next"`
}

// Heur2Strategy is Yildirim et al.'s expert heuristic [25]:
// exponentially increase the active parameter (doubling each epoch)
// until the throughput stops improving significantly, settle on the
// best value seen, move to the next parameter, and terminate — it has
// no decrement mechanism and never re-tunes, which is why the paper
// finds it fast but sensitive to its starting values.
type Heur2Strategy struct {
	cfg Config
	st  Heur2State
}

// NewHeur2Strategy returns a heur2 strategy.
func NewHeur2Strategy(cfg Config) *Heur2Strategy {
	cfg = cfg.withDefaults()
	return &Heur2Strategy{cfg: cfg, st: Heur2State{
		Phase: heurPhaseStart,
		Next:  cfg.Box.ClampInt(cfg.Start),
	}}
}

// Name implements Strategy.
func (h *Heur2Strategy) Name() string { return "heur2" }

// Propose implements Strategy.
func (h *Heur2Strategy) Propose() ([]int, bool) { return ivec.Clone(h.st.Next), false }

// advance finds the next doubling probe, skipping coordinates pinned
// at their bound, or settles into the hold phase after the last one.
func (h *Heur2Strategy) advance() {
	st := &h.st
	for st.Dim < h.cfg.Box.Dim() {
		next := double(h.cfg, st.X, st.Dim)
		if !ivec.Equal(next, st.X) {
			st.Next = next
			st.Phase = heurPhaseClimb
			return
		}
		st.Dim++
	}
	st.Phase = heurPhaseHold
	st.Next = ivec.Clone(st.X)
}

// Observe implements Strategy.
func (h *Heur2Strategy) Observe(rep xfer.Report) {
	f := fitnessOf(h.cfg, rep)
	st := &h.st
	switch st.Phase {
	case heurPhaseStart:
		st.X, st.Best = st.Next, f
		h.advance()
	case heurPhaseClimb:
		if delta(st.Best, f) > h.cfg.Tolerance {
			st.X, st.Best = st.Next, f
		} else {
			// Worse or flat: settle on the previous value and move to
			// the next coordinate.
			st.Dim++
		}
		h.advance()
	case heurPhaseHold:
		// Terminated: hold the settled parameters for the remainder.
	}
}

// Snapshot implements Strategy.
func (h *Heur2Strategy) Snapshot() (json.RawMessage, error) { return json.Marshal(h.st) }

// bump moves coordinate dim of x by d within bounds.
func bump(cfg Config, x []int, dim, d int) []int {
	out := ivec.Clone(x)
	out[dim] += d
	return cfg.Box.ClampInt(out)
}

// double doubles coordinate dim of x within bounds, moving at least
// one step.
func double(cfg Config, x []int, dim int) []int {
	out := ivec.Clone(x)
	v := out[dim] * 2
	if v <= out[dim] {
		v = out[dim] + 1
	}
	out[dim] = v
	return cfg.Box.ClampInt(out)
}
