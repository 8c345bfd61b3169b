package tuner

import (
	"encoding/json"
	"fmt"

	"dstune/internal/history"
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
	// serialized state, not configuration: a warm construction derives
	// it from the history store, and a resume must not re-derive it.
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

// NewTwoPhase builds a two-phase strategy, consulting the store under
// key for the coarse phase's seed when store is non-nil and no resume
// is pending (the consultation is announced through cfg.Obs as a
// WarmStart event). NewStrategy("two-phase", cfg) uses the nil-store
// form.
func NewTwoPhase(cfg Config, store *history.Store, key history.Key) *TwoPhaseStrategy {
	cfg = cfg.withDefaults()
	s := &TwoPhaseStrategy{cfg: cfg, phase: twoPhaseCoarse}
	var pred []int
	if store != nil && cfg.Resume == nil {
		if e, ok := store.Lookup(key); ok && len(e.X) == cfg.Box.Dim() {
			pred = cfg.Box.ClampInt(e.X)
		}
		cfg.Obs.WarmStart(0, pred, pred != nil)
	}
	s.cands = coarseCandidates(cfg, pred)
	return s
}

// NewTwoPhaseStrategy builds the cold (store-less) two-phase strategy.
func NewTwoPhaseStrategy(cfg Config) *TwoPhaseStrategy {
	return NewTwoPhase(cfg, nil, history.Key{})
}

// coarseCandidates derives the coarse sampling list: around a
// historical prediction it brackets the predicted optimum (pred,
// pred×2, pred÷2); cold it climbs from the start point (start, ×2,
// ×4). Candidates are clamped to the box and deduplicated in order,
// so the list always holds at least one vector.
func coarseCandidates(cfg Config, pred []int) [][]int {
	scale := func(x []int, num, den int) []int {
		out := make([]int, len(x))
		for i, v := range x {
			out[i] = v * num / den
		}
		return cfg.Box.ClampInt(out)
	}
	var raw [][]int
	if pred != nil {
		raw = [][]int{scale(pred, 1, 1), scale(pred, 2, 1), scale(pred, 1, 2)}
	} else {
		start := cfg.Box.ClampInt(cfg.Start)
		raw = [][]int{scale(start, 1, 1), scale(start, 2, 1), scale(start, 4, 1)}
	}
	var cands [][]int
	for _, c := range raw {
		dup := false
		for _, prev := range cands {
			if ivec.Equal(prev, c) {
				dup = true
				break
			}
		}
		if !dup {
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

// Restore implements Strategy.
func (s *TwoPhaseStrategy) Restore(raw json.RawMessage) error {
	var st TwoPhaseState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("tuner: two-phase state: %w", err)
	}
	dim := s.cfg.Box.Dim()
	switch st.Phase {
	case twoPhaseCoarse:
		if len(st.Cands) == 0 {
			return fmt.Errorf("tuner: two-phase state has no candidates")
		}
		for i, c := range st.Cands {
			if len(c) != dim {
				return fmt.Errorf("tuner: two-phase candidate %d has %d dims, box has %d", i, len(c), dim)
			}
		}
		if len(st.Fits) >= len(st.Cands) {
			return fmt.Errorf("tuner: two-phase state is coarse with %d of %d candidates already observed", len(st.Fits), len(st.Cands))
		}
		s.phase = twoPhaseCoarse
		s.cands = st.Cands
		s.fits = st.Fits
		s.winner = nil
		s.fine = nil
		return nil
	case twoPhaseFine:
		if len(st.Winner) != dim {
			return fmt.Errorf("tuner: two-phase winner has %d dims, box has %d", len(st.Winner), dim)
		}
		if len(st.Inner) == 0 {
			return fmt.Errorf("tuner: two-phase state is fine but has no inner search state")
		}
		fcfg := s.cfg
		fcfg.Start = s.cfg.Box.ClampInt(st.Winner)
		fcfg.Lambda = fineLambda
		fine := NewCSStrategy(fcfg)
		if err := fine.Restore(st.Inner); err != nil {
			return fmt.Errorf("tuner: two-phase fine search: %w", err)
		}
		s.phase = twoPhaseFine
		s.winner = ivec.Clone(fcfg.Start)
		s.fine = fine
		s.cands = nil
		s.fits = nil
		return nil
	}
	return fmt.Errorf("tuner: two-phase state has unknown phase %q", st.Phase)
}
