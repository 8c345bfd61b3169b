package tuner

import (
	"context"
	"fmt"
	"strings"

	"dstune/internal/history"
	"dstune/internal/xfer"
)

// strategyTuner is the one single-transfer Tuner: a name, a Config, and
// the constructor of the strategy that Driver.Run steps. Every New*
// constructor below is this type with a different strategy.
type strategyTuner struct {
	name string
	cfg  Config
	mk   func(Config) (Strategy, error)
}

// Name implements Tuner.
func (a *strategyTuner) Name() string { return a.name }

// Tune implements Tuner: validate, adopt a resumed checkpoint's seed
// before the strategy (and so its RNG) is constructed, and hand the
// strategy to the Driver.
func (a *strategyTuner) Tune(ctx context.Context, t xfer.Transferer) (*Trace, error) {
	cfg := a.cfg
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ck := cfg.Resume; ck != nil {
		cfg.Seed = ck.Seed
	}
	s, err := a.mk(cfg)
	if err != nil {
		return nil, err
	}
	return NewDriver(cfg).Run(ctx, s, t)
}

// named returns the Tuner of a registered strategy name.
func named(name string, cfg Config) Tuner {
	return &strategyTuner{name: name, cfg: cfg, mk: func(c Config) (Strategy, error) { return NewStrategy(name, c) }}
}

// NewStatic returns the non-adaptive baseline: it runs the transfer
// with the starting parameters forever. With Start mapping to nc=2,
// np=8 it is the paper's `default` (the Globus service's large-file
// setting).
func NewStatic(cfg Config) Tuner { return named("default", cfg) }

// NewCD returns the coordinate-descent tuner of Algorithm 1.
func NewCD(cfg Config) Tuner { return named("cd-tuner", cfg) }

// NewCS returns the compass-search tuner of Algorithm 2.
func NewCS(cfg Config) Tuner { return named("cs-tuner", cfg) }

// NewNM returns the Nelder–Mead tuner of Algorithm 3.
func NewNM(cfg Config) Tuner { return named("nm-tuner", cfg) }

// NewHeur1 returns Balman's additive-increase heuristic baseline.
func NewHeur1(cfg Config) Tuner { return named("heur1", cfg) }

// NewHeur2 returns Yildirim's exponential-increase heuristic baseline.
func NewHeur2(cfg Config) Tuner { return named("heur2", cfg) }

// NewModel returns the model-fitting baseline.
func NewModel(cfg Config) Tuner { return named("model", cfg) }

// NewNamed returns a Tuner for any strategy NewStrategy knows —
// including "two-phase" and the "warm:<inner>" forms, which construct
// cold (no history store; a resumed warm checkpoint carries its
// prediction in its serialized state). NewNamed is for call sites that
// hold only a name, such as a -resume path adopting the checkpoint's
// tuner.
func NewNamed(name string, cfg Config) (Tuner, error) {
	if !KnownStrategy(name) {
		return nil, fmt.Errorf("tuner: unknown strategy %q", name)
	}
	return named(canonicalName(name), cfg), nil
}

// NewWarm returns a Tuner that warm-starts the named inner strategy
// from the history store under key. The store may be nil (a cold run
// under the warm name); a resumed configuration takes its start from
// the checkpoint, never the store.
func NewWarm(inner string, cfg Config, store *history.Store, key history.Key) (Tuner, error) {
	if strings.HasPrefix(inner, "warm:") {
		return nil, fmt.Errorf("tuner: warm start cannot nest %q", inner)
	}
	if !KnownStrategy(inner) {
		return nil, fmt.Errorf("tuner: unknown strategy %q", inner)
	}
	return &strategyTuner{name: "warm:" + canonicalName(inner), cfg: cfg, mk: func(c Config) (Strategy, error) {
		return NewWarmStart(inner, c, store, key)
	}}, nil
}

// NewTwoPhaseTuner returns the two-phase Tuner: coarse historical
// sampling, then fine online search. The store may be nil.
func NewTwoPhaseTuner(cfg Config, store *history.Store, key history.Key) Tuner {
	return &strategyTuner{name: "two-phase", cfg: cfg, mk: func(c Config) (Strategy, error) {
		return NewTwoPhase(c, store, key), nil
	}}
}

// canonicalName resolves strategy-name aliases ("static" is reported
// as "default", including under the wrapper prefixes).
func canonicalName(name string) string {
	for _, prefix := range []string{"warm:", "kernel-aware:"} {
		if inner, ok := strings.CutPrefix(name, prefix); ok {
			return prefix + canonicalName(inner)
		}
	}
	if name == "static" {
		return "default"
	}
	return name
}
