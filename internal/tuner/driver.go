package tuner

import (
	"context"

	"dstune/internal/xfer"
)

// Run tunes t with the named strategy until the transfer completes or
// cfg.Budget is reached, and returns the per-epoch trace: ResolveStrategy
// picks the cold, warm-started (cfg.History) or resumed (cfg.Resume)
// form of the name, and the session runs as Driver.Run runs one. It is
// the blocking way to run a built-in strategy; a custom Strategy goes to
// Driver.Run directly.
func Run(ctx context.Context, name string, cfg Config, t xfer.Transferer) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s, start, err := ResolveStrategy(name, cfg)
	if err != nil {
		return nil, err
	}
	return cfg.run(ctx, s, start, t)
}

// run steps c's one-transfer session of s to its end.
func (c Config) run(ctx context.Context, s Strategy, start []int, t xfer.Transferer) (*Trace, error) {
	rt, err := NewSessionRuntime(c.Session("", s, start, t))
	if err != nil {
		return nil, err
	}
	for !rt.Done() {
		rt.Step(ctx)
	}
	return rt.Result().Traces[0], rt.Err()
}

// Session maps c onto the engine's two halves: the FleetConfig a
// one-transfer session runs under and the FleetSession that has s tune
// t, the way Driver.Run runs it — the transfer is left running when the
// context is cancelled (PreserveOnCancel). id names the session (ID and
// Name); empty leaves both to the strategy's name. start is the
// starting vector ResolveStrategy returned beside s, nil for a strategy
// built from c.Start. Every door that steps a Config's session — Run,
// Driver.Run, dstune, dstune -fleet, dstuned — builds it here and
// overrides only what it owns.
func (c Config) Session(id string, s Strategy, start []int, t xfer.Transferer) (FleetConfig, FleetSession) {
	return FleetConfig{
			Epoch:                c.Epoch,
			Budget:               c.Budget,
			MaxTransientFailures: c.MaxTransientFailures,
			History:              c.History,
			PreserveOnCancel:     true,
		}, FleetSession{
			ID:             id,
			Name:           id,
			Strategy:       s,
			Transfers:      []xfer.Transferer{t},
			Maps:           []ParamMap{c.Map},
			Checkpoint:     c.Checkpoint,
			Seed:           c.Seed,
			Start:          start,
			HistoryKey:     c.HistoryKey,
			Resume:         c.Resume,
			obs:            c.Obs,
			drain:          c.Drain,
			validateResume: c.ValidateResume,
			bestCase:       c.ObserveBestCase,
		}
}

// Driver runs one Strategy against one transfer to completion: the
// blocking front door to the package's epoch engine (Fleet and
// SessionRuntime are the other two). The engine paces the strategy one
// control epoch at a time, enforces the time budget, tolerates
// transient epoch failures, and checkpoints after every epoch. Run is
// ResolveStrategy + the same session for the built-in strategies;
// custom strategies get the same machinery through NewDriver directly.
type Driver struct {
	cfg Config
}

// NewDriver returns a driver for cfg. Run validates the configuration.
func NewDriver(cfg Config) *Driver { return &Driver{cfg: cfg} }

// Run drives s against t until the transfer completes, the budget is
// reached, or s stops proposing, then stops the transfer and returns
// the per-epoch trace. It is a one-transfer session, built from the
// Config and stepped until it is done.
//
// With cfg.Resume set, Run first restores s from the checkpoint's
// serialized strategy state and preloads the recorded trace — an O(1)
// continuation that never re-runs an epoch. With cfg.ValidateResume
// set it instead rebuilds s by replaying the recorded reports through
// it, verifying that every proposal matches what the checkpoint
// recorded; a mismatch (a changed configuration) fails loudly. A run
// resumed with nothing left to do — the transfer finished, the budget
// spent — returns the preloaded trace without running an epoch.
//
// Cancelling ctx aborts the in-flight epoch promptly, records what it
// moved, and returns the trace so far with the context's error; closing
// cfg.Drain instead finishes the in-flight epoch first and returns
// ErrInterrupted. Both are noticed before the strategy is asked for the
// next proposal. Either way a final checkpoint is written (when
// configured) and the transfer is left running — not stopped — so a
// later run can resume.
func (d *Driver) Run(ctx context.Context, s Strategy, t xfer.Transferer) (*Trace, error) {
	if err := d.cfg.Validate(); err != nil {
		return nil, err
	}
	return d.cfg.run(ctx, s, nil, t)
}
