package tuner

import (
	"context"

	"dstune/internal/xfer"
)

// Driver runs one Strategy against one transfer to completion: the
// blocking front door to the package's epoch engine (Fleet and
// SessionRuntime are the other two). The engine paces the strategy one
// control epoch at a time, enforces the time budget, tolerates
// transient epoch failures, and checkpoints after every epoch. The
// built-in tuners are Strategy + Driver compositions; custom
// strategies get the same machinery through NewDriver directly.
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
	cfg := d.cfg.withDefaults()
	rt, err := NewSessionRuntime(FleetConfig{
		Epoch:                cfg.Epoch,
		Budget:               cfg.Budget,
		MaxTransientFailures: cfg.MaxTransientFailures,
		History:              cfg.History,
		PreserveOnCancel:     true,
	}, FleetSession{
		Strategy:       s,
		Transfers:      []xfer.Transferer{t},
		Maps:           []ParamMap{cfg.Map},
		Checkpoint:     cfg.Checkpoint,
		Seed:           cfg.Seed,
		HistoryKey:     cfg.HistoryKey,
		Resume:         cfg.Resume,
		obs:            cfg.Obs,
		drain:          cfg.Drain,
		validateResume: cfg.ValidateResume,
		bestCase:       cfg.ObserveBestCase,
	})
	if err != nil {
		return nil, err
	}
	for !rt.Done() {
		rt.Step(ctx)
	}
	return rt.Result().Traces[0], rt.Err()
}
