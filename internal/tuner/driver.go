package tuner

import (
	"context"

	"dstune/internal/xfer"
)

// Run tunes t with the named strategy until the transfer completes or
// cfg.Budget is reached, and returns the per-epoch trace: ResolveStrategy
// picks the cold, warm-started (cfg.History) or resumed (cfg.Resume)
// form of the name, and the session is Config.Session's one-transfer
// session stepped to its end. It is the blocking way to run a built-in
// strategy; a custom Strategy runs the same session as
// NewFleet(cfg.Session("", s, nil, t)) or under a NewSessionRuntime,
// after the caller's own cfg.Validate — neither validates cfg — with
// the session's failure in SessionResult.Err beside Fleet.Run's error.
//
// Cancelling ctx aborts the in-flight epoch promptly, records what it
// moved, and returns the trace so far with the context's error; closing
// cfg.Drain instead finishes the in-flight epoch first and returns
// ErrInterrupted. Either way a final checkpoint is written (when
// configured) and the transfer is left running, so a later run can
// resume it.
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
// t, the way Run runs it. id names the session (ID and Name); empty
// leaves both to the strategy's name. start is the starting vector
// ResolveStrategy returned beside s, nil for a strategy built from
// c.Start. Every door that steps a Config's session — Run, dstune,
// dstune -fleet, dstuned — builds it here and overrides only what it
// owns.
func (c Config) Session(id string, s Strategy, start []int, t xfer.Transferer) (FleetConfig, FleetSession) {
	return FleetConfig{
			Epoch:                c.Epoch,
			Budget:               c.Budget,
			MaxTransientFailures: c.MaxTransientFailures,
			History:              c.History,
		}, FleetSession{
			ID:         id,
			Name:       id,
			Strategy:   s,
			Transfers:  []xfer.Transferer{t},
			Maps:       []ParamMap{c.Map},
			Checkpoint: c.Checkpoint,
			Seed:       c.Seed,
			Start:      start,
			HistoryKey: c.HistoryKey,
			Resume:     c.Resume,
			obs:        c.Obs,
			drain:      c.Drain,
			bestCase:   c.ObserveBestCase,
		}
}
