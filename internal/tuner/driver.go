package tuner

import (
	"context"
	"errors"
	"fmt"

	"dstune/internal/ivec"
	"dstune/internal/obs"
	"dstune/internal/xfer"
)

// Driver owns the control-epoch loop every tuner shares: it paces a
// Strategy against a transfer one epoch at a time, enforces the time
// budget, tolerates transient epoch failures, and checkpoints after
// every epoch. The seven tuners are thin Strategy + Driver
// compositions; custom strategies get the same machinery through
// NewDriver directly.
type Driver struct {
	cfg Config
}

// NewDriver returns a driver for cfg. Run validates the configuration.
func NewDriver(cfg Config) *Driver { return &Driver{cfg: cfg} }

// Run drives s against t until the transfer completes, the budget is
// reached, or s stops proposing, then stops the transfer and returns
// the per-epoch trace.
//
// With cfg.Resume set, Run first restores s from the checkpoint's
// serialized strategy state and preloads the recorded trace — an O(1)
// continuation that never re-runs an epoch. With cfg.ValidateResume
// set it instead rebuilds s by replaying the recorded reports through
// it, verifying that every proposal matches what the checkpoint
// recorded; a mismatch (a changed configuration) fails loudly.
//
// Cancelling ctx aborts the in-flight epoch promptly and returns the
// trace so far with the context's error; closing cfg.Drain instead
// finishes the in-flight epoch first and returns ErrInterrupted.
// Either way a final checkpoint is written (when configured) and the
// transfer is left running — not stopped — so a later run can resume.
func (d *Driver) Run(ctx context.Context, s Strategy, t xfer.Transferer) (*Trace, error) {
	if err := d.cfg.Validate(); err != nil {
		return nil, err
	}
	r := &session{cfg: d.cfg.withDefaults(), s: s, t: t, tr: &Trace{Tuner: s.Name()}}
	r.ckpt = newCheckpointer(r.cfg.Checkpoint, r.cfg.Obs, s, t, r.cfg.Seed)
	r.cfg.Obs.SetStrategy(s.Name())
	if ck := d.cfg.Resume; ck != nil {
		if err := r.resume(ck); err != nil {
			return nil, err
		}
	}
	defer r.close()
	tr, err := r.loop(ctx)
	r.cfg.Obs.Finish(err)
	return tr, err
}

// session is one Driver.Run in flight.
type session struct {
	cfg Config
	s   Strategy
	t   xfer.Transferer
	tr  *Trace
	// ckpt mirrors tr.Results with the transient flag attached — the
	// trace a checkpoint carries — and writes the checkpoints.
	ckpt *checkpointer
	// transients counts consecutive transient epoch failures.
	transients int
	// preserve suppresses Stop on close: set when the run is
	// interrupted, because stopping the transfer would discard state a
	// resumed run needs (a real-socket Stop deletes the server-side
	// byte account).
	preserve bool
	// lastX is the previously proposed vector, carried on Propose
	// events so a trace shows the strategy's step deltas.
	lastX []int
	// lastFit is the fitness of the previous observed epoch, the
	// baseline for the relative delta carried on Observe events.
	lastFit float64
	// haveFit reports whether lastFit holds a real observation yet.
	haveFit bool
}

// resume validates ck against the strategy and restores the session
// mid-trajectory: the recorded epochs are preloaded into the trace and
// the strategy state is either deserialized directly (the default) or
// rebuilt by replaying the recorded reports (cfg.ValidateResume).
func (r *session) resume(ck *Checkpoint) error {
	if ck.Version != CheckpointVersion {
		return fmt.Errorf("tuner: checkpoint version %d, this build reads %d", ck.Version, CheckpointVersion)
	}
	if ck.Tuner != r.s.Name() {
		return fmt.Errorf("tuner: checkpoint belongs to %q, cannot resume with %q", ck.Tuner, r.s.Name())
	}
	if ck.Epochs != len(ck.Trace) {
		return fmt.Errorf("tuner: corrupt checkpoint: %d epochs but %d trace records", ck.Epochs, len(ck.Trace))
	}
	r.cfg.Seed = ck.Seed
	r.ckpt.seed = ck.Seed
	if len(ck.Trace) == 0 {
		return nil
	}
	if r.cfg.ValidateResume {
		return r.replay(ck)
	}
	if len(ck.Strategy) == 0 {
		return errors.New("tuner: checkpoint has no strategy state; set ValidateResume to rebuild it by replay")
	}
	if err := r.s.Restore(ck.Strategy); err != nil {
		return fmt.Errorf("tuner: resume: %w", err)
	}
	for _, rec := range ck.Trace {
		r.record(rec.X, rec.Report, rec.Transient)
	}
	r.transients = ck.Transients
	return nil
}

// replay rebuilds the strategy state by feeding the recorded reports
// through a fresh strategy, verifying that each proposal matches the
// vector the original run recorded — the opt-in divergence check for
// resumes whose configuration may have drifted.
func (r *session) replay(ck *Checkpoint) error {
	for _, rec := range ck.Trace {
		x, done := r.s.Propose()
		if done {
			return fmt.Errorf("tuner: resume diverged at epoch %d: strategy finished, checkpoint recorded %v", len(r.tr.Results), rec.X)
		}
		if !ivec.Equal(x, rec.X) {
			return fmt.Errorf(
				"tuner: resume diverged at epoch %d: proposed %v, checkpoint recorded %v (was the configuration changed?)",
				len(r.tr.Results), x, rec.X)
		}
		if rec.Transient {
			r.transients++
		} else {
			r.transients = 0
		}
		r.record(rec.X, rec.Report, rec.Transient)
		r.s.Observe(rec.Report)
	}
	return nil
}

// loop is the epoch loop: check for interrupts and exhaustion, ask the
// strategy for a vector, run the epoch, tell the strategy what
// happened.
func (r *session) loop(ctx context.Context) (*Trace, error) {
	for {
		if err := r.interrupted(ctx); err != nil {
			if ckErr := r.checkpoint(); ckErr != nil {
				return r.tr, ckErr
			}
			return r.tr, err
		}
		if r.spent() {
			return r.tr, nil
		}
		x, done := r.s.Propose()
		if done {
			return r.tr, nil
		}
		r.cfg.Obs.Propose(r.t.Now(), x, r.lastX)
		r.lastX = ivec.Clone(x)
		stop, err := r.step(ctx, x)
		if err != nil || stop {
			return r.tr, err
		}
	}
}

// step executes one control epoch with vector x, records it, and
// feeds the report to the strategy. The bool result reports whether
// tuning should stop.
//
// A transient failure (xfer.ErrTransient) does not abort the trace:
// up to MaxTransientFailures-1 consecutive failures are each recorded
// and observed as a zero-throughput epoch and tuning continues — the
// zero reading trips the ε-monitor, so the search re-engages once the
// transfer recovers. The MaxTransientFailures-th consecutive failure,
// and any fatal error, stops tuning with the error. A ctx cancelled
// mid-epoch records the partial epoch (when it carries any transfer
// time), checkpoints, and stops with the context's error.
func (r *session) step(ctx context.Context, x []int) (bool, error) {
	p := r.cfg.Map(x)
	epoch := len(r.tr.Results)
	start := r.t.Now()
	r.cfg.Obs.EpochStart(start, epoch, x)
	rep, err := r.t.Run(ctx, p, r.cfg.Epoch)
	switch {
	case err == nil:
		r.transients = 0
		r.record(x, rep, false)
		r.observe(epoch, x, rep, false)
		if ckErr := r.checkpoint(); ckErr != nil {
			return true, ckErr
		}
		return rep.Done, nil
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		r.preserve = true
		if rep.End > rep.Start {
			r.record(x, rep, false)
			r.observe(epoch, x, rep, false)
		}
		if ckErr := r.checkpoint(); ckErr != nil {
			return true, ckErr
		}
		return true, err
	case xfer.IsTransient(err):
		r.transients++
		if r.transients < r.cfg.MaxTransientFailures {
			rep = xfer.Report{Params: p, Start: start, End: r.t.Now()}
			r.record(x, rep, true)
			r.observe(epoch, x, rep, true)
			if ckErr := r.checkpoint(); ckErr != nil {
				return true, ckErr
			}
			return false, nil
		}
		return true, err
	default:
		return true, err
	}
}

// observe publishes the epoch's outcome to the observation plane and
// feeds the report to the strategy, in that order, so an ε-retrigger
// emitted inside Strategy.Observe lands after the Observe event in the
// trace.
func (r *session) observe(epoch int, x []int, rep xfer.Report, transient bool) {
	if r.cfg.Obs != nil {
		budget := r.cfg.MaxTransientFailures - 1 - r.transients
		if budget < 0 {
			budget = 0
		}
		r.cfg.Obs.EpochEnd(rep.End, epoch, x, obs.EpochStats{
			Throughput:      rep.Throughput,
			BestCase:        rep.BestCase,
			Bytes:           rep.Bytes,
			DeadTime:        rep.DeadTime,
			Dials:           rep.Dials,
			ReusedStreams:   rep.ReusedStreams,
			Retries:         rep.Retries,
			DegradedStreams: rep.DegradedStreams,
			Files:           rep.Files,
			FirstByteLag:    rep.FirstByteLag,
		}, transient, budget)
		f := fitnessOf(r.cfg, rep)
		var d float64
		if r.haveFit {
			d = delta(r.lastFit, f)
		}
		r.lastFit, r.haveFit = f, true
		r.cfg.Obs.Observe(rep.End, epoch, d)
	}
	r.s.Observe(rep)
}

// interrupted reports the pending interrupt, if any: a cancelled ctx
// (hard abort) or a closed Drain channel (stop at the epoch
// boundary). Either way the transfer is preserved for resumption.
func (r *session) interrupted(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		r.preserve = true
		return err
	}
	if r.cfg.Drain != nil {
		select {
		case <-r.cfg.Drain:
			r.preserve = true
			return ErrInterrupted
		default:
		}
	}
	return nil
}

// spent reports whether the transfer is finished or out of budget.
func (r *session) spent() bool {
	if r.t.Remaining() <= 0 {
		return true
	}
	if r.cfg.Budget > 0 && r.t.Now() >= r.cfg.Budget-1e-9 {
		return true
	}
	return false
}

// record appends an epoch to the trace and the checkpoint record.
func (r *session) record(x []int, rep xfer.Report, transient bool) {
	r.tr.add(x, rep)
	r.ckpt.record(x, rep, transient)
}

// close ends the checkpoint writer's lifetime and releases the
// transfer, unless the run was interrupted — an interrupted transfer
// is left alive so a checkpointed run can resume it (the caller may
// still Stop it explicitly).
func (r *session) close() {
	r.ckpt.close()
	if r.preserve {
		return
	}
	r.t.Stop()
}

// checkpoint writes the session's durable state through the shared
// checkpointer; with no writer configured it is a no-op.
func (r *session) checkpoint() error {
	if err := r.ckpt.save(r.transients); err != nil {
		return fmt.Errorf("tuner: %w", err)
	}
	return nil
}
