package tuner

import (
	"encoding/json"
	"fmt"
	"strings"

	"dstune/internal/history"
	"dstune/internal/xfer"
)

// WarmStartState is the serializable state of a warm-started strategy:
// whether a historical prediction was adopted, the predicted vector,
// and the inner strategy's complete state. A resume rebuilds the inner
// strategy from the prediction alone — no history store is consulted —
// so warm runs checkpoint and resume exactly like the cold ones.
type WarmStartState struct {
	// Warm reports whether construction adopted a historical
	// prediction as the inner strategy's starting point.
	Warm bool `json:"warm"`
	// Pred is the adopted prediction (present only when Warm).
	Pred []int `json:"pred,omitempty"`
	// Inner is the inner strategy's serialized state.
	Inner json.RawMessage `json:"inner"`
}

// WarmStartStrategy wraps any built-in strategy with a knowledge-plane
// warm start: at construction it queries the history store for the
// best-known vector under the run's key and, on a hit, starts the
// inner strategy there instead of the configured cold-start point —
// the inner strategy's first proposal becomes the predicted optimum,
// its ε-monitor and restart origin follow along, and everything else
// (search, monitor, checkpointing) proceeds unchanged. On a miss the
// wrapper is transparent.
type WarmStartStrategy struct {
	cfg   Config // the cold configuration, kept for Restore
	inner Strategy
	name  string
	warm  bool
	pred  []int
}

// NewWarmStart builds a warm-started wrapper around the named inner
// strategy ("warm:" nesting is rejected). With a non-nil store and no
// pending resume, the store is consulted for key: a hit whose vector
// matches the box dimensionality becomes the inner strategy's starting
// point (clamped to the box) and is announced through cfg.Obs as a
// WarmStart event; anything else is a miss. With a nil store — the
// form NewStrategy("warm:<inner>", cfg) uses — construction is cold
// and the prediction, if any, arrives later via Restore.
func NewWarmStart(innerName string, cfg Config, store *history.Store, key history.Key) (*WarmStartStrategy, error) {
	if strings.HasPrefix(innerName, "warm:") {
		return nil, fmt.Errorf("tuner: warm start cannot nest %q", innerName)
	}
	s := &WarmStartStrategy{cfg: cfg}
	icfg := cfg
	if store != nil && cfg.Resume == nil {
		if e, ok := store.Lookup(key); ok && len(e.X) == cfg.Box.Dim() {
			s.warm = true
			s.pred = cfg.Box.ClampInt(e.X)
			icfg.Start = s.pred
			cfg.Obs.WarmStart(0, s.pred, true)
		} else {
			cfg.Obs.WarmStart(0, nil, false)
		}
	}
	inner, err := NewStrategy(innerName, icfg)
	if err != nil {
		return nil, err
	}
	s.inner = inner
	s.name = "warm:" + inner.Name()
	return s, nil
}

// Name implements Strategy. The name carries the inner strategy
// ("warm:cs-tuner"), so a checkpoint written by a warm run resumes
// through NewStrategy by name like every other strategy's.
func (s *WarmStartStrategy) Name() string { return s.name }

// Warm reports whether construction adopted a historical prediction,
// and the predicted vector when it did.
func (s *WarmStartStrategy) Warm() ([]int, bool) {
	if !s.warm {
		return nil, false
	}
	return append([]int(nil), s.pred...), true
}

// Propose implements Strategy.
func (s *WarmStartStrategy) Propose() ([]int, bool) { return s.inner.Propose() }

// Observe implements Strategy.
func (s *WarmStartStrategy) Observe(rep xfer.Report) { s.inner.Observe(rep) }

// Snapshot implements Strategy.
func (s *WarmStartStrategy) Snapshot() (json.RawMessage, error) {
	raw, err := s.inner.Snapshot()
	if err != nil {
		return nil, err
	}
	return json.Marshal(WarmStartState{Warm: s.warm, Pred: s.pred, Inner: raw})
}

// Restore implements Strategy. The inner strategy is rebuilt from the
// snapshot's prediction (its start point, restart origin, and RNG
// follow from the configuration plus the prediction), then its own
// state is restored — so a resumed warm run continues deterministically
// without the history store that seeded it.
func (s *WarmStartStrategy) Restore(raw json.RawMessage) error {
	var st WarmStartState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("tuner: %s state: %w", s.name, err)
	}
	if len(st.Inner) == 0 {
		return fmt.Errorf("tuner: %s state has no inner strategy state", s.name)
	}
	icfg := s.cfg
	var pred []int
	if st.Warm {
		if len(st.Pred) != s.cfg.Box.Dim() {
			return fmt.Errorf("tuner: %s state prediction has %d dims, box has %d", s.name, len(st.Pred), s.cfg.Box.Dim())
		}
		pred = s.cfg.Box.ClampInt(st.Pred)
		icfg.Start = pred
	}
	innerName := strings.TrimPrefix(s.name, "warm:")
	inner, err := NewStrategy(innerName, icfg)
	if err != nil {
		return err
	}
	if err := inner.Restore(st.Inner); err != nil {
		return err
	}
	s.warm = st.Warm
	s.pred = pred
	s.inner = inner
	return nil
}
