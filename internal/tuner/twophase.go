package tuner

import (
	"encoding/json"
	"fmt"
	"slices"

	"dstune/internal/ivec"
	"dstune/internal/xfer"
)

// Phases of the two-phase strategy.
const (
	twoPhaseCoarse = "coarse" // sampling the candidate list, one epoch each
	twoPhaseFine   = "fine"   // refining around the coarse winner
)

// fineLambda is the fine phase's initial compass step: small, because
// the coarse phase already placed the search near an operating point.
const fineLambda = 2

// TwoPhaseState is the serializable state of the two-phase strategy:
// the phase, the coarse candidate list with the fitnesses observed so
// far, and — once the fine search is running — the coarse winner and
// the inner search's complete state.
type TwoPhaseState struct {
	// Phase is "coarse" or "fine".
	Phase string `json:"phase"`
	// Cands is the coarse candidate list (coarse phase only). It is
	// serialized state: a restored coarse phase samples the recorded
	// list, whatever ladder the fresh instance was built with.
	Cands [][]int `json:"cands,omitempty"`
	// Fits holds the observed fitness of each sampled candidate, in
	// candidate order (coarse phase only).
	Fits []float64 `json:"fits,omitempty"`
	// Winner is the coarse phase's best candidate (fine phase only).
	Winner []int `json:"winner,omitempty"`
	// Inner is the fine search's serialized state (fine phase only).
	Inner json.RawMessage `json:"inner,omitempty"`
}

// TwoPhaseStrategy is the coarse-then-fine tuner of the historical
// knowledge plane (after the two-phase designs surveyed in
// arXiv:1812.11255): a short coarse phase evaluates a handful of
// candidates — seeded by the history store's prediction when one
// exists, by scalings of the cold-start point otherwise — for one
// control epoch each, then a fine compass search with a small initial
// step refines around the coarse winner under the usual ε-monitor.
// Monitor retriggers restart the fine search from the coarse winner,
// not the cold-start point.
type TwoPhaseStrategy struct {
	cfg    Config
	phase  string
	cands  [][]int
	fits   []float64
	winner []int
	fine   *SearchStrategy
}

// NewTwoPhaseStrategy builds a two-phase strategy whose coarse phase
// starts at cfg.Start. predicted says cfg.Start is the history store's
// prediction (ResolveStrategy adopted a warmStart hit) and selects the
// bracketing ladder; a cold start climbs.
func NewTwoPhaseStrategy(cfg Config, predicted bool) *TwoPhaseStrategy {
	cfg = cfg.withDefaults()
	return &TwoPhaseStrategy{cfg: cfg, phase: twoPhaseCoarse, cands: coarseCandidates(cfg, predicted)}
}

// coarseCandidates derives the coarse sampling list from x0 =
// cfg.Start: a predicted optimum is bracketed (x0, x0×2, x0÷2), a cold
// start climbed from (x0, ×2, ×4). Candidates are clamped to the box
// and deduplicated in order, so the list always holds at least one
// vector.
func coarseCandidates(cfg Config, predicted bool) [][]int {
	x0 := cfg.Box.ClampInt(cfg.Start)
	scale := func(num, den int) []int {
		out := make([]int, len(x0))
		for i, v := range x0 {
			out[i] = v * num / den
		}
		return cfg.Box.ClampInt(out)
	}
	raw := [][]int{scale(1, 1), scale(2, 1), scale(4, 1)}
	if predicted {
		raw[2] = scale(1, 2)
	}
	var cands [][]int
	for _, c := range raw {
		if !slices.ContainsFunc(cands, func(prev []int) bool { return ivec.Equal(prev, c) }) {
			cands = append(cands, c)
		}
	}
	return cands
}

// Name implements Strategy.
func (s *TwoPhaseStrategy) Name() string { return "two-phase" }

// Propose implements Strategy.
func (s *TwoPhaseStrategy) Propose() ([]int, bool) {
	if s.phase == twoPhaseCoarse {
		return ivec.Clone(s.cands[len(s.fits)]), false
	}
	return s.fine.Propose()
}

// Observe implements Strategy.
func (s *TwoPhaseStrategy) Observe(rep xfer.Report) {
	if s.phase == twoPhaseFine {
		s.fine.Observe(rep)
		return
	}
	s.fits = append(s.fits, fitnessOf(s.cfg, rep))
	if len(s.fits) == len(s.cands) {
		best := 0
		for i, f := range s.fits {
			if f > s.fits[best] {
				best = i
			}
		}
		s.enterFine(s.cands[best])
	}
}

// enterFine starts the fine compass search around the coarse winner.
func (s *TwoPhaseStrategy) enterFine(winner []int) {
	s.winner = ivec.Clone(winner)
	fcfg := s.cfg
	fcfg.Start = s.winner
	fcfg.Lambda = fineLambda
	s.fine = NewCSStrategy(fcfg)
	s.phase = twoPhaseFine
}

// Snapshot implements Strategy.
func (s *TwoPhaseStrategy) Snapshot() (json.RawMessage, error) {
	st := TwoPhaseState{Phase: s.phase}
	if s.phase == twoPhaseCoarse {
		st.Cands = s.cands
		st.Fits = s.fits
		return json.Marshal(st)
	}
	raw, err := s.fine.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("tuner: two-phase snapshot: %w", err)
	}
	st.Winner = s.winner
	st.Inner = raw
	return json.Marshal(st)
}
