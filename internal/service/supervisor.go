package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"dstune/internal/fsx"
	"dstune/internal/history"
	"dstune/internal/obs"
	"dstune/internal/tuner"
	"dstune/internal/xfer"
)

// ErrNotFound is returned by Job and Cancel for an unknown job ID.
var ErrNotFound = errors.New("service: no such job")

// errCancelled ends a session whose job was cancelled through the
// control API; errFaultBudget ends sessions of a tenant whose
// transient-fault budget ran out.
var (
	errCancelled   = errors.New("service: job cancelled")
	errFaultBudget = errors.New("service: tenant fault budget exhausted")
)

// TransferFactory builds a job's transfer. The default factory builds
// a simulation-fabric transfer or a gridftp client from the spec;
// tests substitute synthetic transfers for scale soaks. resume is the
// job's checkpoint when it is being re-adopted, nil on a cold start.
type TransferFactory func(id string, spec JobSpec, resume *tuner.Checkpoint) (xfer.Transferer, error)

// Config parameterizes a Supervisor.
type Config struct {
	// Dir is the daemon's state directory; the job journal lives in
	// Dir/journal and per-job checkpoints (a head <id>.ck and its
	// epoch log <id>.ck.log) in Dir/checkpoints. Required.
	Dir string
	// Shards is the number of session-supervision worker loops; jobs
	// are assigned by tuner.ShardIndex of their ID (default 4).
	Shards int
	// Limits is the admission-control policy.
	Limits Limits
	// Obs, when non-nil, observes the daemon (dstuned_* instruments,
	// job lifecycle events) and every session it runs.
	Obs *obs.Observer
	// History, when non-nil, is the shared cross-tenant knowledge
	// plane: sessions warm-start from it and record their best epochs
	// into it, exactly as Fleet sessions do.
	History *history.Store
	// Logf receives operational log lines (adoption counts, journal
	// damage); nil discards them.
	Logf func(format string, args ...any)
	// NewTransfer overrides transfer construction; nil selects the
	// built-in spec-driven factory.
	NewTransfer TransferFactory
}

// JobState is a job's lifecycle state as reported by the control API.
type JobState string

// The job lifecycle. Queued and Running jobs are journaled;
// Interrupted jobs (daemon shutting down) stay journaled so the next
// incarnation re-adopts them; the four terminal states are removed
// from the journal as they are entered.
const (
	// JobQueued: admitted, journaled, waiting for a shard slot.
	JobQueued JobState = "queued"
	// JobRunning: stepping on a shard loop.
	JobRunning JobState = "running"
	// JobDone: ended cleanly (transfer complete, budget spent, or
	// strategy finished).
	JobDone JobState = "done"
	// JobFailed: ended with an error.
	JobFailed JobState = "failed"
	// JobCancelled: ended by DELETE /jobs/{id}; the last checkpoint is
	// retained on disk.
	JobCancelled JobState = "cancelled"
	// JobEvicted: force-ended by the supervisor (tenant fault budget).
	JobEvicted JobState = "evicted"
	// JobInterrupted: abandoned mid-trajectory by a daemon shutdown;
	// still journaled, re-adopted on the next start.
	JobInterrupted JobState = "interrupted"
)

// JobStatus is one job's live state as served by the control API.
type JobStatus struct {
	// ID is the job's identifier.
	ID string `json:"id"`
	// Tenant is the quota-attribution tenant.
	Tenant string `json:"tenant"`
	// Tuner is the strategy name.
	Tuner string `json:"tuner"`
	// State is the lifecycle state.
	State JobState `json:"state"`
	// Shard is the worker loop the job is hashed to.
	Shard int `json:"shard"`
	// Adopted reports that this incarnation re-adopted the job from
	// the journal after a restart.
	Adopted bool `json:"adopted,omitempty"`
	// AdoptedEpochs is the number of checkpointed epochs the job
	// resumed from.
	AdoptedEpochs int `json:"adopted_epochs,omitempty"`
	// Epochs is the number of settled epochs, cumulative across
	// restarts.
	Epochs int `json:"epochs"`
	// X is the parameter vector currently in play.
	X []int `json:"x,omitempty"`
	// Throughput is the last settled epoch's aggregate throughput
	// (bytes/s).
	Throughput float64 `json:"throughput,omitempty"`
	// Bytes is the total bytes the job's epochs moved, cumulative
	// across restarts.
	Bytes float64 `json:"bytes"`
	// TargetBytes is the spec's transfer volume (0 = unbounded).
	TargetBytes float64 `json:"target_bytes,omitempty"`
	// TransientEpochs is the current consecutive transient-failure
	// count.
	TransientEpochs int `json:"transient_epochs,omitempty"`
	// Error is the terminal error, when the job failed.
	Error string `json:"error,omitempty"`
}

// AdoptionRecord is one line of the adoption report a restarted daemon
// produces: the journaled job it re-adopted and where its trajectory
// stood.
type AdoptionRecord struct {
	// ID is the job's identifier.
	ID string `json:"id"`
	// Tenant is the job's tenant.
	Tenant string `json:"tenant"`
	// Epochs is the checkpointed epoch count at adoption.
	Epochs int `json:"epochs"`
	// Bytes is the receiver-confirmed byte count at the last
	// checkpoint.
	Bytes float64 `json:"bytes"`
	// Clock is the transfer clock at the last checkpoint (seconds).
	Clock float64 `json:"clock_seconds"`
}

// job is one job's supervisor-side state. The rt field is owned by the
// job's shard goroutine; everything else is guarded by Supervisor.mu,
// with the shard loop copying runtime progress into the snapshot
// fields after each round.
type job struct {
	id     string
	tenant string
	spec   JobSpec // defaults applied
	seq    int
	shard  int

	state         JobState
	err           error
	cancel        bool
	adopted       bool
	adoptedEpochs int
	epochs        int
	bytes         float64
	x             []int
	tput          float64
	transients    int

	rt *tuner.SessionRuntime
}

// Supervisor is the dstuned service core: admission control, the
// sharded session-supervision loops, the crash-safe job journal, and
// the control-plane state behind the HTTP API. Construct with New
// (which re-adopts any journaled jobs), call Start to launch the shard
// loops, and cancel Start's context to drain: in-flight sessions are
// abandoned preserved-and-journaled, so the next incarnation resumes
// them mid-trajectory.
type Supervisor struct {
	cfg     Config
	limits  Limits
	shards  int
	obs     *obs.Observer
	dobs    *obs.DaemonObs
	hist    *history.Store
	journal *Journal
	ckDir   string

	ctx context.Context
	wg  sync.WaitGroup

	mu             sync.Mutex
	jobs           map[string]*job
	order          []*job
	queues         [][]*job
	wake           []chan struct{}
	active         int
	queued         int
	tenantAdmitted map[string]int
	tenantFaults   map[string]int
	tenantKilled   map[string]bool
	nextSeq        int
	started        bool
	adoptions      []AdoptionRecord
}

// New builds a Supervisor over cfg.Dir, creating the state layout if
// needed and re-adopting every journaled job: each becomes a queued
// job again, resuming from its checkpoint once a shard picks it up.
// Call Start to begin supervision.
func New(cfg Config) (*Supervisor, error) {
	if cfg.Dir == "" {
		return nil, errors.New("service: Config.Dir is required")
	}
	shards := cfg.Shards
	if shards < 1 {
		shards = 4
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	journal, err := OpenJournal(filepath.Join(cfg.Dir, "journal"))
	if err != nil {
		return nil, err
	}
	ckDir := filepath.Join(cfg.Dir, "checkpoints")
	if err := os.MkdirAll(ckDir, 0o755); err != nil {
		return nil, err
	}
	if err := fsx.SyncDir(cfg.Dir); err != nil {
		return nil, err
	}
	sv := &Supervisor{
		cfg:            cfg,
		limits:         cfg.Limits.withDefaults(),
		shards:         shards,
		obs:            cfg.Obs,
		dobs:           cfg.Obs.Daemon(),
		hist:           cfg.History,
		journal:        journal,
		ckDir:          ckDir,
		jobs:           make(map[string]*job),
		queues:         make([][]*job, shards),
		wake:           make([]chan struct{}, shards),
		tenantAdmitted: make(map[string]int),
		tenantFaults:   make(map[string]int),
		tenantKilled:   make(map[string]bool),
	}
	for k := range sv.wake {
		sv.wake[k] = make(chan struct{}, 1)
	}
	if err := sv.adopt(); err != nil {
		return nil, err
	}
	return sv, nil
}

// adopt scans the journal and re-queues every entry: the restarted
// daemon owes each of these jobs a completion. Trajectory positions
// come from the heads of the per-job checkpoints when they exist — the
// epoch logs are not decoded until a shard builds the job's runtime,
// so a restart holding many long jobs starts stepping without reading
// their traces first; a journaled job without a checkpoint simply
// cold-starts (it was admitted but never settled an epoch).
func (sv *Supervisor) adopt() error {
	entries, skipped, err := sv.journal.Entries()
	if err != nil {
		return err
	}
	if skipped > 0 {
		sv.logf("service: journal scan skipped %d unreadable entries", skipped)
	}
	for _, e := range entries {
		j := &job{
			id:      e.ID,
			tenant:  e.Tenant,
			spec:    e.Spec.WithDefaults(),
			seq:     e.Seq,
			shard:   tuner.ShardIndex(e.ID, sv.shards),
			state:   JobQueued,
			adopted: true,
		}
		rec := AdoptionRecord{ID: e.ID, Tenant: e.Tenant}
		if ck, err := tuner.LoadCheckpointHead(sv.checkpointPath(e.ID)); err == nil {
			j.adoptedEpochs = ck.Epochs
			j.epochs = ck.Epochs
			j.bytes = ck.Transfer.Acked
			rec.Epochs = ck.Epochs
			rec.Bytes = ck.Transfer.Acked
			rec.Clock = ck.Transfer.Clock
		}
		sv.jobs[j.id] = j
		sv.order = append(sv.order, j)
		sv.queues[j.shard] = append(sv.queues[j.shard], j)
		sv.queued++
		sv.tenantAdmitted[j.tenant]++
		if e.Seq >= sv.nextSeq {
			sv.nextSeq = e.Seq + 1
		}
		sv.adoptions = append(sv.adoptions, rec)
		sv.dobs.JobAdopted(e.ID, j.adoptedEpochs)
	}
	if len(entries) > 0 {
		sv.logf("service: re-adopted %d journaled jobs", len(entries))
	}
	sv.updateGaugesLocked()
	return nil
}

// Adopted returns the adoption report from this incarnation's journal
// scan, in admission order.
func (sv *Supervisor) Adopted() []AdoptionRecord {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return append([]AdoptionRecord(nil), sv.adoptions...)
}

// Start launches the shard loops. Cancelling ctx drains the daemon:
// shards finish their in-flight round, abandon surviving sessions
// preserved (journal entries and checkpoints intact, transfers left
// resumable), and exit; Wait blocks until they have.
func (sv *Supervisor) Start(ctx context.Context) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.started {
		return
	}
	sv.started = true
	sv.ctx = ctx
	for k := 0; k < sv.shards; k++ {
		sv.wg.Add(1)
		go sv.shardLoop(ctx, k)
	}
}

// Wait blocks until every shard loop has exited.
func (sv *Supervisor) Wait() { sv.wg.Wait() }

// logf forwards to Config.Logf when set.
func (sv *Supervisor) logf(format string, args ...any) {
	if sv.cfg.Logf != nil {
		sv.cfg.Logf(format, args...)
	}
}

// checkpointPath returns the durable checkpoint of job id: the path of
// its head; tuner.FileCheckpoint keeps the epoch log beside it.
func (sv *Supervisor) checkpointPath(id string) string {
	return filepath.Join(sv.ckDir, id+".ck")
}

// Submit admits one job: validate, apply defaults, check quotas,
// journal durably, enqueue on its shard. The returned status reflects
// the admitted (queued) job. A *RejectError signals backpressure or a
// quota; any other error is either an invalid spec or a journal write
// failure.
func (sv *Supervisor) Submit(spec JobSpec) (JobStatus, error) {
	if err := spec.Validate(); err != nil {
		return JobStatus{}, err
	}
	sv.dobs.Submitted()
	full := spec.WithDefaults()

	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.ctx != nil && sv.ctx.Err() != nil {
		return JobStatus{}, sv.reject("draining", 0)
	}
	id := full.ID
	if id == "" {
		for {
			id = fmt.Sprintf("job-%06d", sv.nextSeq)
			if _, taken := sv.jobs[id]; !taken {
				break
			}
			sv.nextSeq++
		}
		full.ID = id
	}
	if _, dup := sv.jobs[id]; dup {
		return JobStatus{}, sv.reject("duplicate", 0)
	}
	if sv.tenantKilled[full.Tenant] {
		return JobStatus{}, sv.reject("fault-budget", 0)
	}
	if sv.queued >= sv.limits.MaxQueued {
		return JobStatus{}, sv.reject("queue-full", sv.limits.RetryAfter)
	}
	if sv.tenantAdmitted[full.Tenant] >= sv.limits.TenantMaxActive {
		return JobStatus{}, sv.reject("tenant-quota", sv.limits.RetryAfter)
	}

	seq := sv.nextSeq
	sv.nextSeq++
	j := &job{
		id:     id,
		tenant: full.Tenant,
		spec:   full,
		seq:    seq,
		shard:  tuner.ShardIndex(id, sv.shards),
		state:  JobQueued,
	}
	// The journal entry must be durable before the job becomes
	// visible anywhere: a crash between the client's 201 and the
	// first checkpoint must still re-adopt the job.
	if err := sv.journal.Append(JournalEntry{ID: id, Tenant: full.Tenant, Spec: full, Seq: seq}); err != nil {
		return JobStatus{}, err
	}
	sv.jobs[id] = j
	sv.order = append(sv.order, j)
	sv.queues[j.shard] = append(sv.queues[j.shard], j)
	sv.queued++
	sv.tenantAdmitted[j.tenant]++
	sv.dobs.JobAdmitted(id, j.tenant)
	sv.updateGaugesLocked()
	select {
	case sv.wake[j.shard] <- struct{}{}:
	default:
	}
	return j.statusLocked(), nil
}

// reject counts and returns one admission refusal.
func (sv *Supervisor) reject(reason string, retryAfter time.Duration) *RejectError {
	sv.dobs.Rejected(reason)
	return &RejectError{Reason: reason, RetryAfter: retryAfter}
}

// Cancel gracefully ends job id: a queued job is retired immediately;
// a running one finishes its in-flight epoch (checkpointing as usual)
// and is retired at the next round boundary. Either way the last
// checkpoint stays on disk and the journal entry is removed, so the
// job is not re-adopted. Cancelling a finished job returns its
// terminal status unchanged.
func (sv *Supervisor) Cancel(id string) (JobStatus, error) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	j, ok := sv.jobs[id]
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	switch j.state {
	case JobQueued:
		q := sv.queues[j.shard]
		for i, qj := range q {
			if qj == j {
				sv.queues[j.shard] = append(q[:i:i], q[i+1:]...)
				break
			}
		}
		sv.queued--
		sv.finalizeLocked(j, JobCancelled, nil)
	case JobRunning:
		j.cancel = true
	}
	return j.statusLocked(), nil
}

// Job returns job id's status.
func (sv *Supervisor) Job(id string) (JobStatus, error) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	j, ok := sv.jobs[id]
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	return j.statusLocked(), nil
}

// Jobs returns every known job's status in admission order.
func (sv *Supervisor) Jobs() []JobStatus {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	out := make([]JobStatus, 0, len(sv.order))
	for _, j := range sv.order {
		out = append(out, j.statusLocked())
	}
	return out
}

// statusLocked snapshots the job; the caller holds Supervisor.mu.
func (j *job) statusLocked() JobStatus {
	st := JobStatus{
		ID:              j.id,
		Tenant:          j.tenant,
		Tuner:           j.spec.Tuner,
		State:           j.state,
		Shard:           j.shard,
		Adopted:         j.adopted,
		AdoptedEpochs:   j.adoptedEpochs,
		Epochs:          j.epochs,
		X:               append([]int(nil), j.x...),
		Throughput:      j.tput,
		Bytes:           j.bytes,
		TargetBytes:     j.spec.Bytes,
		TransientEpochs: j.transients,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// finalizeLocked retires a job into a terminal state: counters,
// gauges, and — critically — the journal entry, whose durable removal
// is what keeps the job from being re-adopted. The caller holds
// Supervisor.mu; for previously running jobs it has already released
// the shard slot via releaseLocked.
func (sv *Supervisor) finalizeLocked(j *job, state JobState, err error) {
	j.state = state
	j.err = err
	sv.tenantAdmitted[j.tenant]--
	if rerr := sv.journal.Remove(j.id); rerr != nil {
		sv.logf("service: job %s: journal remove: %v", j.id, rerr)
	}
	switch state {
	case JobEvicted:
		sv.dobs.JobEvicted(j.id, "fault-budget")
	case JobCancelled:
		sv.dobs.JobDone(nil, true)
	default:
		sv.dobs.JobDone(err, false)
	}
	sv.updateGaugesLocked()
}

// updateGaugesLocked refreshes the queue/active/tenant gauges; the
// caller holds Supervisor.mu.
func (sv *Supervisor) updateGaugesLocked() {
	sv.dobs.SetQueueDepth(sv.queued)
	sv.dobs.SetActive(sv.active)
	for tenant, n := range sv.tenantAdmitted {
		sv.dobs.SetTenantActive(tenant, n)
	}
}

// shardLoop is one supervision worker: admit queued jobs up to the
// global cap, step every live session concurrently (one barrier per
// round, like a Fleet round), settle the results, repeat. On ctx
// cancellation it abandons surviving sessions preserved — journal
// entries and checkpoints intact — so a restart re-adopts them.
func (sv *Supervisor) shardLoop(ctx context.Context, k int) {
	defer sv.wg.Done()
	shard := strconv.Itoa(k)
	var live []*job
	for {
		// Admit while capacity remains.
		var admits []*job
		sv.mu.Lock()
		for len(sv.queues[k]) > 0 && sv.active < sv.limits.MaxActive {
			j := sv.queues[k][0]
			sv.queues[k] = sv.queues[k][1:]
			sv.queued--
			sv.active++
			j.state = JobRunning
			admits = append(admits, j)
		}
		sv.updateGaugesLocked()
		sv.mu.Unlock()
		for _, j := range admits {
			rt, err := sv.buildRuntime(j)
			sv.mu.Lock()
			if err != nil {
				sv.releaseLocked()
				sv.finalizeLocked(j, JobFailed, err)
				sv.mu.Unlock()
				continue
			}
			j.rt = rt
			sv.mu.Unlock()
			live = append(live, j)
		}

		if len(live) == 0 {
			select {
			case <-ctx.Done():
				return
			case <-sv.wake[k]:
				continue
			}
		}
		if ctx.Err() != nil {
			sv.abandon(ctx.Err(), live)
			return
		}

		// Honor cancels and tenant evictions at the round boundary.
		sv.mu.Lock()
		stepping := live[:0]
		for _, j := range live {
			switch {
			case j.cancel:
				j.rt.Abort(errCancelled)
				sv.releaseLocked()
				sv.finalizeLocked(j, JobCancelled, nil)
			case sv.tenantKilled[j.tenant]:
				j.rt.Abort(errFaultBudget)
				sv.releaseLocked()
				sv.finalizeLocked(j, JobEvicted, errFaultBudget)
			default:
				stepping = append(stepping, j)
			}
		}
		sv.mu.Unlock()
		live = stepping
		if len(live) == 0 {
			continue
		}

		// One supervision round: all sessions step concurrently.
		sv.dobs.SetShardSessions(shard, len(live))
		t0 := time.Now()
		infos := make([]tuner.StepInfo, len(live))
		var wg sync.WaitGroup
		for i, j := range live {
			wg.Add(1)
			go func(i int, j *job) {
				defer wg.Done()
				infos[i] = j.rt.Step(ctx)
			}(i, j)
		}
		wg.Wait()
		sv.dobs.RoundObserved(shard, time.Since(t0).Seconds())

		// Settle.
		next := live[:0]
		sv.mu.Lock()
		for i, j := range live {
			j.syncFromRuntimeLocked()
			info := infos[i]
			if info.Transient {
				sv.tenantFaults[j.tenant]++
				sv.dobs.TenantFaults(j.tenant, 1)
				if sv.limits.TenantFaultBudget > 0 && sv.tenantFaults[j.tenant] >= sv.limits.TenantFaultBudget && !sv.tenantKilled[j.tenant] {
					sv.tenantKilled[j.tenant] = true
					sv.logf("service: tenant %s exhausted its fault budget (%d transient epochs); evicting its jobs", j.tenant, sv.tenantFaults[j.tenant])
				}
			}
			if !info.Done {
				next = append(next, j)
				continue
			}
			sv.releaseLocked()
			switch {
			case errors.Is(info.Err, context.Canceled) || errors.Is(info.Err, context.DeadlineExceeded):
				// Daemon shutdown mid-epoch: the session preserved its
				// transfer and the journal entry stays, so the next
				// incarnation re-adopts the job from its last
				// checkpoint.
				j.state = JobInterrupted
				j.err = nil
				sv.tenantAdmitted[j.tenant]--
			case j.cancel:
				sv.finalizeLocked(j, JobCancelled, nil)
			case info.Err != nil:
				sv.finalizeLocked(j, JobFailed, info.Err)
			default:
				sv.finalizeLocked(j, JobDone, nil)
			}
		}
		sv.updateGaugesLocked()
		sv.mu.Unlock()
		live = next
		sv.dobs.SetShardSessions(shard, len(live))
	}
}

// releaseLocked returns one shard slot and wakes every shard that
// still has queued work; the caller holds Supervisor.mu. The active
// cap is fleet-wide, so the freed slot may unblock admission on a
// *different* shard — without the wake, a shard whose queue filled
// while the fleet was at capacity would park in its idle select and
// never learn that capacity returned (its own wake token is consumed
// long before the backlog drains).
func (sv *Supervisor) releaseLocked() {
	sv.active--
	for k, q := range sv.queues {
		if len(q) > 0 {
			select {
			case sv.wake[k] <- struct{}{}:
			default:
			}
		}
	}
}

// abandon marks sessions interrupted at shutdown without
// touching their journal entries: the whole point of the journal is
// that these jobs survive to the next incarnation. Each runtime is
// aborted with the drain's cancellation error, which ends the session
// — releasing what it holds, such as its checkpoint log handle — but
// under PreserveOnCancel leaves its transfer resumable.
func (sv *Supervisor) abandon(cause error, live []*job) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	for _, j := range live {
		j.rt.Abort(cause)
		j.syncFromRuntimeLocked()
		j.state = JobInterrupted
		sv.active--
		sv.tenantAdmitted[j.tenant]--
	}
	sv.updateGaugesLocked()
}

// syncFromRuntimeLocked copies runtime progress into the job's
// snapshot fields. Called from the owning shard goroutine (runtime
// accessors are not concurrency-safe) with Supervisor.mu held (the
// snapshot fields are read by the API).
func (j *job) syncFromRuntimeLocked() {
	if j.rt == nil {
		return
	}
	j.epochs = j.rt.Epochs()
	j.bytes = j.rt.Bytes()
	j.x = append(j.x[:0], j.rt.LastX()...)
	j.tput = j.rt.LastThroughput()
	j.transients = j.rt.Transients()
}
