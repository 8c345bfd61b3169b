package tuner

import (
	"context"
	"fmt"
)

// StepInfo is the outcome of one SessionRuntime.Step: whether the
// session has ended (and with what error), and whether the settled
// round was a tolerated transient failure.
type StepInfo struct {
	// Done reports whether the session has ended; once true, further
	// Steps are no-ops returning the same terminal state.
	Done bool
	// Transient reports that the settled round failed transiently and
	// was tolerated (recorded as a zero-throughput epoch).
	Transient bool
	// Err is the session's terminal error when Done; nil for a clean
	// end (transfer complete, budget spent, or strategy finished).
	Err error
}

// SessionRuntime drives a single session one round at a time, for
// supervisors that admit and retire sessions dynamically (the dstuned
// service) instead of running a fixed set to completion the way
// Fleet.Run does. It is the package's one epoch engine with the loop
// left to the caller: Fleet.Run and Run step the very same
// session state, so a session behaves identically behind all three.
//
// A SessionRuntime is owned by one goroutine at a time: Step, Abort,
// and the accessors must not be called concurrently with one another.
type SessionRuntime struct {
	s *fleetSession
}

// NewSessionRuntime validates spec and returns a runtime for it. The
// session's ID is taken from spec (ID, then Name, then the strategy
// name) without deduplication — the caller guarantees uniqueness. A
// spec.Resume checkpoint restores the session mid-trajectory exactly
// as Fleet.Run would.
func NewSessionRuntime(cfg FleetConfig, spec FleetSession) (*SessionRuntime, error) {
	cfg = cfg.withDefaults()
	id := sessionID(spec, map[string]bool{})
	if err := spec.validate(); err != nil {
		return nil, fmt.Errorf("tuner: session %q: %w", id, err)
	}
	s, err := newFleetSession(cfg, spec, id)
	if err != nil {
		return nil, fmt.Errorf("tuner: session %q: %w", id, err)
	}
	return &SessionRuntime{s: s}, nil
}

// ID returns the session's stable identifier.
func (r *SessionRuntime) ID() string { return r.s.id }

// Done reports whether the session has ended.
func (r *SessionRuntime) Done() bool { return r.s.done }

// Err returns the session's terminal error (nil before it ends, and
// for a clean end).
func (r *SessionRuntime) Err() error { return r.s.err }

// Epochs returns the number of settled epochs, including any preloaded
// by a resume.
func (r *SessionRuntime) Epochs() int { return r.s.epochs }

// Bytes returns the total bytes the session's recorded epochs moved,
// cumulative across resumed incarnations.
func (r *SessionRuntime) Bytes() float64 { return r.s.bytes }

// Transients returns the current consecutive transient-failure count.
func (r *SessionRuntime) Transients() int { return r.s.transients }

// LastX returns the most recently proposed parameter vector (nil
// before the first round).
func (r *SessionRuntime) LastX() []int { return r.s.lastX }

// LastThroughput returns the aggregate throughput of the last settled
// epoch in bytes/second (0 before the first).
func (r *SessionRuntime) LastThroughput() float64 { return r.s.lastFit }

// Step runs one control round: propose, run the session's transfer
// epochs concurrently, settle, checkpoint. It blocks for the epoch
// duration (virtual time under a simulation fabric, wall time on
// sockets). Done flips in the Step that ran the last epoch; a session
// that is already spent when it starts — resumed over a finished
// transfer or an exhausted budget — ends in its first Step without
// running one.
//
// A ctx already cancelled when Step is called ends the session before
// the strategy is asked for a proposal. A ctx cancelled mid-epoch ends
// it with the partial epoch recorded, observed and checkpointed (a
// single-transfer session; several transfers drop the round). Both end
// it with the context's error and with the transfers left running for
// a later resume.
func (r *SessionRuntime) Step(ctx context.Context) StepInfo {
	if !r.s.done {
		r.s.step(ctx)
	}
	return StepInfo{Done: r.s.done, Transient: r.s.lastTransient, Err: r.s.err}
}

// Abort ends the session immediately with err, stopping its transfers
// (unless err is a context cancellation or ErrInterrupted). It is
// how a supervisor evicts or cancels a session between rounds; a
// session that is already done is left untouched.
func (r *SessionRuntime) Abort(err error) {
	if r.s.done {
		return
	}
	r.s.finish(err)
}

// Result returns the session's outcome in the same form Fleet.Run
// reports. The traces include epochs preloaded by a resume.
func (r *SessionRuntime) Result() SessionResult {
	return r.s.result()
}
