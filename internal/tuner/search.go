package tuner

import (
	"encoding/json"

	"dstune/internal/directsearch"
	"dstune/internal/ivec"
	"dstune/internal/sim"
	"dstune/internal/xfer"
)

// Phases of the search strategies (cs-tuner, nm-tuner, model).
const (
	searchPhaseSearch  = "search"  // the inner direct search is running
	searchPhaseMonitor = "monitor" // holding the incumbent under the ε-monitor
)

// Inner-search kinds of SearchStrategy, each the name its strategy
// reports.
const (
	searchKindCompass = "cs-tuner"
	searchKindNM      = "nm-tuner"
)

// SearchState is the tuner-level state of cs-tuner and nm-tuner: the
// phase, the monitor incumbent and the ε-monitor. The inner search's
// position lives in the searcher itself; Snapshot marshals only this
// record, for inspection.
type SearchState struct {
	// Phase is the tuner phase: search or monitor.
	Phase string `json:"phase"`
	// X is the incumbent held during the monitor phase.
	X []int `json:"x,omitempty"`
	// Monitor is the ε-monitor state (armed flag and baseline).
	Monitor Monitor `json:"monitor"`
}

// SearchStrategy is the common frame of cs-tuner and nm-tuner
// (Algorithms 2 and 3) as a propose/observe state machine: run the
// inner direct search to convergence, one control epoch per
// evaluation, then hold the incumbent and monitor consecutive epoch
// throughputs; when they differ by more than the tolerance, start the
// search again.
type SearchStrategy struct {
	cfg  Config
	kind string
	x0   []int
	rng  *sim.RNG
	srch directsearch.Searcher
	st   SearchState
}

// newSearchStrategy builds the shared cs/nm frame.
func newSearchStrategy(kind string, cfg Config) *SearchStrategy {
	cfg = cfg.withDefaults()
	s := &SearchStrategy{
		cfg:  cfg,
		kind: kind,
		x0:   cfg.Box.ClampInt(cfg.Start),
		rng:  sim.NewRNG(cfg.Seed),
		st:   SearchState{Monitor: Monitor{Tolerance: cfg.Tolerance}},
	}
	s.startSearch(s.x0)
	s.advance()
	return s
}

// NewCSStrategy returns the compass-search strategy of Algorithm 2.
func NewCSStrategy(cfg Config) *SearchStrategy {
	return newSearchStrategy(searchKindCompass, cfg)
}

// NewNMStrategy returns the Nelder–Mead strategy of Algorithm 3.
func NewNMStrategy(cfg Config) *SearchStrategy {
	return newSearchStrategy(searchKindNM, cfg)
}

// newSearch builds a fresh inner search from a starting vector.
func (s *SearchStrategy) newSearch(start []int) directsearch.Searcher {
	switch s.kind {
	case searchKindNM:
		return directsearch.NewNelderMead(start, s.cfg.Box, directsearch.NMConfig{InitStep: s.cfg.Lambda})
	default:
		return directsearch.NewCompass(start, s.cfg.Box, directsearch.CompassConfig{
			Lambda: s.cfg.Lambda,
		}, s.rng)
	}
}

// startSearch enters the search phase with a fresh inner search.
func (s *SearchStrategy) startSearch(start []int) {
	s.st.Phase = searchPhaseSearch
	s.srch = s.newSearch(start)
}

// advance resolves the inner search's pending transitions. On return,
// either the search holds a pending candidate (so Propose is pure) or
// it converged and the strategy moved to the monitor phase with the
// incumbent and a re-armed monitor.
func (s *SearchStrategy) advance() {
	if s.st.Phase != searchPhaseSearch {
		return
	}
	if _, done := s.srch.Suggest(); !done {
		return
	}
	// Line 17 done: adopt the incumbent and start monitoring.
	bx, bf := s.srch.Best()
	if len(bx) == 0 {
		bx = ivec.Clone(s.x0)
	}
	s.st.X = bx
	s.st.Monitor.Reset(bf)
	s.st.Phase = searchPhaseMonitor
	s.srch = nil
}

// Name implements Strategy.
func (s *SearchStrategy) Name() string { return s.kind }

// Propose implements Strategy.
func (s *SearchStrategy) Propose() ([]int, bool) {
	if s.st.Phase == searchPhaseSearch {
		// advance left a pending candidate, so Suggest is pure here.
		cand, _ := s.srch.Suggest()
		return ivec.Clone(cand), false
	}
	return ivec.Clone(s.st.X), false
}

// Observe implements Strategy.
func (s *SearchStrategy) Observe(rep xfer.Report) {
	f := fitnessOf(s.cfg, rep)
	if s.st.Phase == searchPhaseSearch {
		s.srch.Observe(f)
		s.advance()
		return
	}
	// Lines 18-25: the monitor loop.
	last := s.st.Monitor.Last
	if s.st.Monitor.Observe(f) {
		s.cfg.Obs.Retrigger(rep.End, delta(last, f))
		// Line 22: restart the inner search from x0.
		s.startSearch(s.x0)
		s.advance()
	}
}

// Snapshot implements Strategy.
func (s *SearchStrategy) Snapshot() (json.RawMessage, error) { return json.Marshal(s.st) }
