package tuner

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"dstune/internal/history"
	"dstune/internal/ivec"
	"dstune/internal/obs"
	"dstune/internal/xfer"
)

// FleetConfig parameterizes a Fleet run: the shared epoch length, the
// per-session tuning budget, and the per-session transient-failure
// tolerance.
type FleetConfig struct {
	// Epoch is the control-epoch length in seconds (default 30).
	Epoch float64
	// Budget limits each session's tuning time in transfer-clock
	// seconds; 0 means until its transfers complete.
	Budget float64
	// MaxTransientFailures ends a session at the n-th consecutive
	// transient epoch failure (default 3). 1 means the first failure
	// of any kind ends the session.
	MaxTransientFailures int
	// Obs, when non-nil, observes every session: each session counts
	// into the process-wide metrics and appears under its stable ID in
	// the /status document. Nil disables observation.
	Obs *obs.Observer
	// History, when non-nil, is the shared knowledge plane: every
	// session with a non-zero HistoryKey records its best observed
	// epoch under that key when it ends cleanly. Sessions must not
	// share a key (Run rejects duplicates).
	History *history.Store
}

// withDefaults returns cfg with zero fields replaced by defaults.
func (c FleetConfig) withDefaults() FleetConfig {
	if c.Epoch == 0 {
		c.Epoch = 30
	}
	if c.MaxTransientFailures == 0 {
		c.MaxTransientFailures = 3
	}
	return c
}

// FleetSession is one (strategy, transfers) pairing a Fleet drives: a
// Strategy proposing over the concatenation of the transfers' vectors,
// sliced per transfer by Dims and mapped to parameters by Maps. A
// single-transfer session may leave Dims nil to hand the whole vector
// to that transfer.
type FleetSession struct {
	// ID is the session's stable identifier: the /status key, the
	// events' session field, and the error prefix. Empty defaults to
	// Name (then to the strategy name); Fleet deduplicates colliding
	// IDs deterministically by appending "-2", "-3", … in session
	// order.
	ID string
	// Name labels the session in results; empty defaults to the
	// strategy name.
	Name string
	// Strategy decides the session's parameter vectors.
	Strategy Strategy
	// Transfers are the session's concurrent transfers.
	Transfers []xfer.Transferer
	// Dims is the vector width per transfer; nil with one transfer
	// means the whole vector.
	Dims []int
	// Maps converts each transfer's slice to its parameters.
	Maps []ParamMap
	// Checkpoint, when non-nil, receives the session's durable state
	// after every settled epoch and once more when the session is
	// interrupted. Only single-transfer sessions support checkpointing.
	Checkpoint CheckpointWriter
	// Seed is recorded in the session's checkpoints so a resumed run
	// reconstructs the same strategy. A Resume checkpoint's seed
	// overrides it.
	Seed uint64
	// Start is the starting vector Strategy was built from when that
	// is not its configuration's own — the history prediction
	// ResolveStrategy adopted; nil for a cold session. It is recorded
	// beside Seed, and a Resume checkpoint's start overrides it.
	Start []int
	// HistoryKey, when non-zero, is the session's identity in the
	// fleet's shared history store: a clean end records the session's
	// best epoch under it. Keys must be unique across the fleet —
	// deduplicated session IDs ("bulk", "bulk-2") must never alias one
	// key, or one session's record would overwrite another's identity.
	HistoryKey history.Key
	// Resume, when non-nil, restores the session mid-trajectory from a
	// prior checkpoint before the first round: the checkpoint's epoch
	// log is replayed through Strategy, which must be freshly built
	// under the checkpoint's Seed and Start, and every proposal is
	// verified against the vector the log recorded; the recorded
	// epochs are preloaded into the trace and byte account, and the
	// transient-failure counter is recounted from them. The replay
	// emits no events. The checkpoint must match the session's
	// strategy name; only single-transfer sessions support resumption.
	Resume *Checkpoint

	// The rest is what Config.Session hands down from a Config, which
	// has no counterpart in FleetConfig.

	// obs replaces FleetConfig.Obs.Session(id) as the session's view.
	obs *obs.SessionObs
	// drain is Config.Drain: once closed, the session ends with
	// ErrInterrupted at the next round boundary.
	drain <-chan struct{}
	// bestCase is Config.ObserveBestCase, for the Observe event's delta
	// (the strategy applies it to its own objective itself).
	bestCase bool
}

// validate reports whether the session is usable.
func (s FleetSession) validate() error {
	if s.Strategy == nil {
		return errors.New("session has no strategy")
	}
	if len(s.Transfers) == 0 {
		return errors.New("session has no transfers")
	}
	if s.Dims == nil && len(s.Transfers) != 1 {
		return fmt.Errorf("session has %d transfers but no dims", len(s.Transfers))
	}
	if s.Dims != nil && len(s.Dims) != len(s.Transfers) {
		return fmt.Errorf("session has %d dims for %d transfers", len(s.Dims), len(s.Transfers))
	}
	if len(s.Maps) != len(s.Transfers) {
		return fmt.Errorf("session has %d maps for %d transfers", len(s.Maps), len(s.Transfers))
	}
	for i, m := range s.Maps {
		if m == nil {
			return fmt.Errorf("session transfer %d has nil map", i)
		}
	}
	for i, d := range s.Dims {
		if d < 1 {
			return fmt.Errorf("session transfer %d has dim %d", i, d)
		}
	}
	if s.Checkpoint != nil && len(s.Transfers) != 1 {
		return fmt.Errorf("session has %d transfers; checkpointing supports exactly one", len(s.Transfers))
	}
	if s.Resume != nil && len(s.Transfers) != 1 {
		return fmt.Errorf("session has %d transfers; resume supports exactly one", len(s.Transfers))
	}
	return nil
}

// SessionResult is one session's outcome: the per-transfer traces (in
// Transfers order), the total bytes its epochs moved, and the error
// that ended it, if any.
type SessionResult struct {
	// ID is the session's stable identifier (post-deduplication).
	ID string
	// Name is the session's label.
	Name string
	// Traces hold each transfer's recorded epochs; every epoch records
	// that transfer's own slice of the session vector.
	Traces []*Trace
	// Bytes is the total bytes moved across the session's transfers
	// and recorded epochs.
	Bytes float64
	// Err is the error that ended the session: nil for a normal end
	// (transfer done, budget spent, or strategy finished), the
	// transfer error otherwise.
	Err error
}

// Fleet drives N (strategy, transfers) sessions concurrently, each on
// its own goroutine at its own pace: propose, run the session's transfer
// epochs, feed the aggregate report back to the strategy, until the
// session ends. Nothing here couples one session to another. Sessions
// whose transfers share a simulation fabric still advance in lockstep
// virtual time, because the fabric moves its clock only when every
// active transfer is inside a Run call. Each session's own sequence of
// proposals, reports, events and checkpoints is deterministic; how
// different sessions' events interleave in a shared obs.Recorder, or
// their records in a shared history.Store, is not. Sessions end
// independently — transfer completion, budget, strategy termination,
// failure, or a cancelled context — and a session's transfers are
// stopped when it ends, except that a cancelled or drained session
// leaves them running for a later resume.
//
// There is one epoch engine in this package and Fleet is one of its
// three front doors: Fleet.Run runs a fixed set of sessions to
// completion, SessionRuntime steps one session at a supervisor's pace,
// and Run is a one-transfer session stepped until it is done. A
// session behaves the same behind each of them: the same resume,
// transient tolerance, checkpoints, events and accounting.
type Fleet struct {
	cfg      FleetConfig
	sessions []FleetSession
}

// NewFleet returns a fleet over the given sessions.
func NewFleet(cfg FleetConfig, sessions ...FleetSession) *Fleet {
	return &Fleet{cfg: cfg, sessions: sessions}
}

// fleetSession is one session's runtime state.
type fleetSession struct {
	cfg    FleetConfig
	spec   FleetSession
	id     string
	dims   []int
	traces []*Trace
	bytes  float64
	// transients counts consecutive transient epoch failures.
	transients int
	done       bool
	err        error
	// parts holds the current round's per-transfer slices.
	parts [][]int
	// obs is the session's observation view (nil when unobserved).
	obs *obs.SessionObs
	// epochs counts settled rounds, the epoch index for observation
	// and checkpointing.
	epochs int
	// lastX is the previous proposal, carried on Propose events.
	lastX []int
	// lastFit/haveFit track the previous aggregate objective (fitnessOf)
	// for Observe-event deltas.
	lastFit float64
	haveFit bool
	// ckpt records and writes the session's checkpoints (a no-op
	// without FleetSession.Checkpoint).
	ckpt *checkpointer
	// lastTransient reports whether the most recently settled round
	// was a tolerated transient failure (SessionRuntime surfaces it).
	lastTransient bool
}

// newFleetSession builds the runtime state of one validated session
// under its resolved id, restoring it from spec.Resume when set.
func newFleetSession(cfg FleetConfig, spec FleetSession, id string) (*fleetSession, error) {
	if spec.Name == "" {
		spec.Name = spec.Strategy.Name()
	}
	s := &fleetSession{cfg: cfg, spec: spec, id: id, dims: spec.Dims}
	s.obs = spec.obs
	if s.obs == nil {
		s.obs = cfg.Obs.Session(id)
	}
	s.obs.SetStrategy(spec.Strategy.Name())
	s.ckpt = newCheckpointer(spec.Checkpoint, s.obs, spec.Strategy.Name(), spec.Transfers[0], spec.Seed, spec.Start)
	s.traces = make([]*Trace, len(spec.Transfers))
	for j := range s.traces {
		s.traces[j] = &Trace{Tuner: spec.Name}
	}
	if spec.Resume != nil {
		if err := s.resume(spec.Resume); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// fleetJob is one transfer's epoch in flight.
type fleetJob struct {
	i   int // transfer index within the session
	p   xfer.Params
	rep xfer.Report
	err error
	// start is the transfer clock when the epoch was dispatched, for
	// synthesizing a zero-throughput report on transient failure.
	start float64
}

// Run drives all sessions until each has ended and returns their
// results in session order. The error is non-nil only for an unusable
// configuration; per-session failures (including ctx cancellation,
// which fails each session's in-flight epoch) are reported in the
// results.
func (f *Fleet) Run(ctx context.Context) ([]SessionResult, error) {
	cfg := f.cfg.withDefaults()
	if len(f.sessions) == 0 {
		return nil, errors.New("tuner: fleet has no sessions")
	}
	states := make([]*fleetSession, len(f.sessions))
	ids := make(map[string]bool, len(f.sessions))
	// Deduplicated session IDs guarantee distinct /status keys, but
	// durable identities are configured before deduplication runs — so
	// two sessions could still point at one checkpoint file or one
	// history key. Both would silently corrupt a resume (or a record),
	// so they are rejected here.
	ckPaths := make(map[string]string)
	histKeys := make(map[string]string)
	for i, spec := range f.sessions {
		id := sessionID(spec, ids)
		if err := spec.validate(); err != nil {
			return nil, fmt.Errorf("tuner: fleet session %q: %w", id, err)
		}
		if fc, ok := spec.Checkpoint.(*FileCheckpoint); ok {
			if prev, dup := ckPaths[fc.Path()]; dup {
				return nil, fmt.Errorf("tuner: fleet sessions %q and %q share checkpoint file %s", prev, id, fc.Path())
			}
			ckPaths[fc.Path()] = id
		}
		if k := spec.HistoryKey; !k.IsZero() {
			if prev, dup := histKeys[k.String()]; dup {
				return nil, fmt.Errorf("tuner: fleet sessions %q and %q share history key %s", prev, id, k)
			}
			histKeys[k.String()] = id
		}
		s, err := newFleetSession(cfg, spec, id)
		if err != nil {
			return nil, fmt.Errorf("tuner: fleet session %q: %w", id, err)
		}
		states[i] = s
	}

	var wg sync.WaitGroup
	for _, s := range states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !s.done {
				s.step(ctx)
			}
		}()
	}
	wg.Wait()

	results := make([]SessionResult, len(states))
	for i, s := range states {
		results[i] = s.result()
	}
	return results, nil
}

// sessionID resolves a session's stable identifier: explicit ID, then
// Name, then the strategy name, deduplicated deterministically by
// appending "-2", "-3", … in declaration order.
func sessionID(spec FleetSession, used map[string]bool) string {
	base := spec.ID
	if base == "" {
		base = spec.Name
	}
	if base == "" && spec.Strategy != nil {
		base = spec.Strategy.Name()
	}
	if base == "" {
		base = "session"
	}
	id := base
	for n := 2; used[id]; n++ {
		id = fmt.Sprintf("%s-%d", base, n)
	}
	used[id] = true
	return id
}

// step runs one control round: propose, run the round's transfer
// epochs, settle. A session that ends in propose runs no epoch.
func (s *fleetSession) step(ctx context.Context) {
	if jobs := s.propose(ctx); jobs != nil {
		s.runJobs(ctx, jobs)
		s.settle(jobs)
	}
}

// runJobs dispatches one round's transfer epochs concurrently and waits
// for all of them, so the transfers of a multi-transfer session are all
// in their epoch at once.
func (s *fleetSession) runJobs(ctx context.Context, jobs []*fleetJob) {
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j.rep, j.err = s.spec.Transfers[j.i].Run(ctx, j.p, s.cfg.Epoch)
		}()
	}
	wg.Wait()
}

// result returns the session's outcome so far.
func (s *fleetSession) result() SessionResult {
	return SessionResult{ID: s.id, Name: s.spec.Name, Traces: s.traces, Bytes: s.bytes, Err: s.err}
}

// propose opens the session's next round: unless the session was
// interrupted or is already spent, it asks the strategy for the round's
// vector and expands it into per-transfer jobs. Both checks come before
// Propose, so a session that ends here has consumed no proposal it will
// never observe. A nil result means the session has ended.
func (s *fleetSession) propose(ctx context.Context) []*fleetJob {
	s.lastTransient = false
	if err := s.interrupted(ctx); err != nil {
		s.interrupt(err)
		return nil
	}
	if s.spent() {
		s.finish(nil)
		return nil
	}
	x, fin := s.spec.Strategy.Propose()
	if fin {
		s.finish(nil)
		return nil
	}
	now := s.spec.Transfers[0].Now()
	s.obs.Propose(now, x, s.lastX)
	s.lastX = ivec.Clone(x)
	parts, err := s.slice(x)
	if err != nil {
		s.finish(err)
		return nil
	}
	s.parts = parts
	s.obs.EpochStart(now, s.epochs, x)
	jobs := make([]*fleetJob, 0, len(s.spec.Transfers))
	for i := range s.spec.Transfers {
		jobs = append(jobs, &fleetJob{
			i:     i,
			p:     s.spec.Maps[i](parts[i]),
			start: s.spec.Transfers[i].Now(),
		})
	}
	return jobs
}

// interrupted reports the interrupt pending at a round boundary, if
// any: a cancelled ctx, or a closed drain channel (ErrInterrupted).
func (s *fleetSession) interrupted(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case <-s.spec.drain:
		return ErrInterrupted
	default:
		return nil
	}
}

// isCancel reports whether err is a context's cancellation or deadline.
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// spent reports whether the session has nothing left to run: a transfer
// is finished or the budget is used up. It is true from the start for a
// session resumed over a finished transfer or an exhausted budget.
func (s *fleetSession) spent() bool {
	for _, t := range s.spec.Transfers {
		if t.Remaining() <= 0 {
			return true
		}
	}
	return s.overBudget()
}

// overBudget reports whether the transfer clock has reached the budget.
func (s *fleetSession) overBudget() bool {
	return s.cfg.Budget > 0 && s.spec.Transfers[0].Now() >= s.cfg.Budget-1e-9
}

// resume restores the session from a prior checkpoint before its first
// round: validate the checkpoint against the strategy, adopt its seed
// and start, replay its recorded epochs through the strategy with the
// session's observation muted — those epochs were reported by the
// incarnation that ran them — and preload the recorded epochs into the
// trace, the byte account, and the checkpoint record, so later
// checkpoints carry the full trajectory and Bytes counts cumulatively
// across incarnations.
func (s *fleetSession) resume(ck *Checkpoint) error {
	if ck.Version != CheckpointVersion {
		return fmt.Errorf("resume: checkpoint version %d, this build reads %d", ck.Version, CheckpointVersion)
	}
	if ck.Tuner != s.spec.Strategy.Name() {
		return fmt.Errorf("resume: checkpoint belongs to %q, cannot resume with %q", ck.Tuner, s.spec.Strategy.Name())
	}
	if ck.Epochs != len(ck.Trace) {
		return fmt.Errorf("resume: corrupt checkpoint: %d epochs but %d trace records", ck.Epochs, len(ck.Trace))
	}
	s.ckpt.seed, s.ckpt.start = ck.Seed, ck.Start
	if len(ck.Trace) == 0 {
		return nil
	}
	var err error
	s.obs.Muted(func() { err = s.replay(ck) })
	if err != nil {
		return err
	}
	s.ckpt.records = append(s.ckpt.records, ck.Trace...)
	for _, rec := range ck.Trace {
		s.traces[0].add(rec.X, rec.Report)
		s.bytes += rec.Report.Bytes
	}
	s.epochs = len(ck.Trace)
	s.lastX = ivec.Clone(ck.Trace[len(ck.Trace)-1].X)
	return nil
}

// replay rebuilds the strategy state and the transient count by feeding
// the recorded reports through the fresh strategy, verifying that each
// proposal matches the vector the original run recorded: a checkpoint
// this build, or this configuration, does not reproduce is refused
// rather than continued from a state it never reached.
func (s *fleetSession) replay(ck *Checkpoint) error {
	for epoch, rec := range ck.Trace {
		x, fin := s.spec.Strategy.Propose()
		if fin {
			return fmt.Errorf("resume diverged at epoch %d: strategy finished, checkpoint recorded %v", epoch, rec.X)
		}
		if !ivec.Equal(x, rec.X) {
			return fmt.Errorf(
				"resume diverged at epoch %d: proposed %v, checkpoint recorded %v (was the configuration changed?)",
				epoch, x, rec.X)
		}
		if rec.Transient {
			s.transients++
		} else {
			s.transients = 0
		}
		s.spec.Strategy.Observe(rec.Report)
	}
	return nil
}

// slice cuts the session vector into per-transfer slices.
func (s *fleetSession) slice(x []int) ([][]int, error) {
	if s.dims == nil {
		return [][]int{x}, nil
	}
	total := 0
	for _, d := range s.dims {
		total += d
	}
	if len(x) != total {
		return nil, fmt.Errorf("tuner: session %q proposed %d dims, transfers need %d", s.spec.Name, len(x), total)
	}
	out := make([][]int, len(s.dims))
	off := 0
	for i, d := range s.dims {
		out[i] = x[off : off+d]
		off += d
	}
	return out, nil
}

// settle folds one round's per-transfer reports into the session and
// decides whether it ends: a cancelled or fatally failed epoch ends it
// with the error; a transient failure is tolerated — the failed epochs
// are recorded and observed as zero throughput, which trips the
// strategy's ε-monitor once the transfer recovers — until the
// MaxTransientFailures-th in a row ends it too; a settled epoch ends it
// cleanly when a transfer is done or the budget is reached, so Done
// flips in the round that ran the last epoch.
func (s *fleetSession) settle(jobs []*fleetJob) {
	failed := false
	for _, j := range jobs {
		switch {
		case j.err == nil:
		case isCancel(j.err):
			// Cancelled mid-epoch. One transfer's partial epoch moved
			// bytes the checkpoint must account for, so it is recorded
			// and observed like any other; several transfers have no
			// checkpoint to keep exact and the round is dropped.
			if len(jobs) == 1 && j.rep.End > j.rep.Start {
				s.record(jobs, false)
			}
			s.interrupt(j.err)
			return
		case !xfer.IsTransient(j.err):
			s.finish(j.err)
			return
		default:
			failed = true
		}
	}
	if failed {
		s.transients++
		for _, j := range jobs {
			if j.err == nil {
				continue
			}
			if s.transients >= s.cfg.MaxTransientFailures {
				s.finish(j.err)
				return
			}
			j.rep = xfer.Report{Params: j.p, Start: j.start, End: s.spec.Transfers[j.i].Now()}
		}
	} else {
		s.transients = 0
	}
	s.lastTransient = failed
	done := s.record(jobs, failed)
	if err := s.save(); err != nil {
		s.finish(err)
		return
	}
	if done || s.overBudget() {
		s.finish(nil)
	}
}

// record is the one place an epoch enters the session: the traces, the
// byte account, the observation plane (EpochEnd, then Observe), the
// strategy, and the checkpoint record, in that order — so an ε-retrigger
// emitted inside Strategy.Observe lands after the Observe event. It
// reports whether a transfer finished.
func (s *fleetSession) record(jobs []*fleetJob, transient bool) (done bool) {
	agg := xfer.Report{Start: jobs[0].rep.Start, End: jobs[0].rep.End}
	for _, j := range jobs {
		s.traces[j.i].add(s.parts[j.i], j.rep)
		s.bytes += j.rep.Bytes
		agg.Bytes += j.rep.Bytes
		agg.Throughput += j.rep.Throughput
		agg.BestCase += j.rep.BestCase
		agg.DeadTime += j.rep.DeadTime
		agg.Dials += j.rep.Dials
		agg.ReusedStreams += j.rep.ReusedStreams
		agg.Retries += j.rep.Retries
		agg.DegradedStreams += j.rep.DegradedStreams
		agg.Files += j.rep.Files
		if j.rep.Done {
			agg.Done = true
		}
	}
	if len(jobs) == 1 {
		// One transfer's first-byte lag and kernel sample are the
		// session's; across several neither has a meaningful sum.
		agg.FirstByteLag = jobs[0].rep.FirstByteLag
		agg.Kernel = jobs[0].rep.Kernel
	}
	epoch := s.epochs
	s.epochs++
	fit := fitnessOf(Config{ObserveBestCase: s.spec.bestCase}, agg)
	if s.obs != nil {
		budget := s.cfg.MaxTransientFailures - 1 - s.transients
		if budget < 0 {
			budget = 0
		}
		s.obs.EpochEnd(agg.End, epoch, s.lastX, obs.EpochStats{
			Throughput:      agg.Throughput,
			BestCase:        agg.BestCase,
			Bytes:           agg.Bytes,
			DeadTime:        agg.DeadTime,
			Dials:           agg.Dials,
			ReusedStreams:   agg.ReusedStreams,
			Retries:         agg.Retries,
			DegradedStreams: agg.DegradedStreams,
			Files:           agg.Files,
			FirstByteLag:    agg.FirstByteLag,
		}, transient, budget)
		var d float64
		if s.haveFit {
			d = delta(s.lastFit, fit)
		}
		s.obs.Observe(agg.End, epoch, d)
	}
	// Tracked unconditionally: SessionRuntime.LastThroughput reads it,
	// observer or not.
	s.lastFit, s.haveFit = fit, true
	s.spec.Strategy.Observe(agg)
	// validate() pinned checkpointing sessions to one transfer, so the
	// checkpoint records that transfer's own report.
	s.ckpt.record(s.parts[0], jobs[0].rep, transient)
	return agg.Done
}

// save writes the session's checkpoint; without a writer it is a no-op.
func (s *fleetSession) save() error {
	if err := s.ckpt.save(); err != nil {
		return fmt.Errorf("tuner: session %q: %w", s.id, err)
	}
	return nil
}

// interrupt ends the session on a cancelled ctx or a drain, leaving a
// final checkpoint behind for the run that resumes it.
func (s *fleetSession) interrupt(err error) {
	if ckErr := s.save(); ckErr != nil {
		err = ckErr
	}
	s.finish(err)
}

// finish ends the session, closes its checkpoint writer, and stops its
// transfers. A clean end folds the session's best epoch into the
// fleet's history store. The transfers are left running — stopping a
// real-socket transfer deletes the server's byte account a resumed run
// needs — when the session was drained (ErrInterrupted) or its context
// was cancelled.
func (s *fleetSession) finish(err error) {
	s.done = true
	s.err = err
	s.ckpt.close()
	if err == nil {
		s.recordHistory()
	}
	s.obs.Finish(err)
	if errors.Is(err, ErrInterrupted) || isCancel(err) {
		return
	}
	for _, t := range s.spec.Transfers {
		t.Stop()
	}
}

// recordHistory writes the session's best observed epoch to the shared
// history store under the session's key. No-op without a store, a key,
// a single transfer, or any observed epoch.
func (s *fleetSession) recordHistory() {
	if s.cfg.History == nil || s.spec.HistoryKey.IsZero() || len(s.traces) != 1 {
		return
	}
	x, tp, ok := s.traces[0].BestEpoch()
	if !ok {
		return
	}
	rec := history.Record{
		Key: s.spec.HistoryKey, X: x, Throughput: tp,
		Tuner: s.spec.Strategy.Name(), Epochs: len(s.traces[0].Results),
	}
	if s.cfg.History.Add(rec) == nil {
		s.obs.HistoryRecorded()
	}
}
