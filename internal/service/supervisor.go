package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
	// Dir/journal and per-job checkpoints (one file, <id>.ck) in
	// Dir/checkpoints. Required.
	Dir string
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
	// JobQueued: admitted, journaled, waiting for a running slot.
	JobQueued JobState = "queued"
	// JobRunning: stepping on its own goroutine.
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

// job is one job's supervisor-side state, guarded by Supervisor.mu. The
// job's goroutine (Supervisor.run) owns the session runtime and copies
// its progress into the snapshot fields after each epoch.
type job struct {
	id     string
	tenant string
	spec   JobSpec // defaults applied
	seq    int

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
}

// Supervisor is the dstuned service core: admission control, one
// goroutine per running session, the crash-safe job journal, and the
// control-plane state behind the HTTP API. Construct with New (which
// re-adopts any journaled jobs), call Start to begin running them, and
// cancel Start's context to drain: in-flight sessions end
// preserved-and-journaled, so the next incarnation resumes them
// mid-trajectory.
type Supervisor struct {
	cfg     Config
	limits  Limits
	obs     *obs.Observer
	dobs    *obs.DaemonObs
	hist    *history.Store
	journal *Journal
	ckDir   string

	wg sync.WaitGroup

	mu             sync.Mutex
	ctx            context.Context // Start's; nil before it
	jobs           map[string]*job
	order          []*job
	queue          []*job // admitted, waiting for a slot, oldest first
	active         int
	tenantAdmitted map[string]int
	tenantFaults   map[string]int
	tenantKilled   map[string]bool
	nextSeq        int
	adoptions      []AdoptionRecord
}

// New builds a Supervisor over cfg.Dir, creating the state layout if
// needed and re-adopting every journaled job: each becomes a queued
// job again, resuming from its checkpoint once it is given a slot.
// Call Start to begin supervision.
func New(cfg Config) (*Supervisor, error) {
	if cfg.Dir == "" {
		return nil, errors.New("service: Config.Dir is required")
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
		obs:            cfg.Obs,
		dobs:           cfg.Obs.Daemon(),
		hist:           cfg.History,
		journal:        journal,
		ckDir:          ckDir,
		jobs:           make(map[string]*job),
		tenantAdmitted: make(map[string]int),
		tenantFaults:   make(map[string]int),
		tenantKilled:   make(map[string]bool),
	}
	if err := sv.adopt(); err != nil {
		return nil, err
	}
	return sv, nil
}

// adopt scans the journal and re-queues every entry: the restarted
// daemon owes each of these jobs a completion. Trajectory positions
// come from the per-job checkpoints through tuner.LoadCheckpointHead,
// which checks every record as the runtime's resume will but decodes
// only the header and the last, so a restart holding many long jobs
// starts stepping without decoding their traces first, and a job whose
// checkpoint the resume would refuse is adopted at 0 epochs, as it will
// run; a journaled job without a checkpoint simply cold-starts (it was
// admitted but never settled an epoch).
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
		sv.queue = append(sv.queue, j)
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

// Start begins running jobs: queued ones now, later ones as they are
// submitted, each on its own goroutine. Cancelling ctx drains the
// daemon: nothing more is admitted, and every running session ends at
// its next epoch boundary — or mid-epoch, once its transfer returns —
// preserved (journal entry and checkpoint intact, transfer left
// resumable); Wait blocks until they have.
func (sv *Supervisor) Start(ctx context.Context) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.ctx != nil {
		return
	}
	sv.ctx = ctx
	// Hold Wait open until the drain begins, so a job admitted while
	// another goroutine is already in Wait still joins a non-zero
	// WaitGroup. Passing through mu orders this Done after any admission
	// that saw ctx live.
	sv.wg.Add(1)
	go func() {
		defer sv.wg.Done()
		<-ctx.Done()
		sv.mu.Lock()
		defer sv.mu.Unlock()
	}()
	sv.admitLocked()
}

// Wait blocks until Start's context is cancelled and every running
// session has ended.
func (sv *Supervisor) Wait() { sv.wg.Wait() }

// logf forwards to Config.Logf when set.
func (sv *Supervisor) logf(format string, args ...any) {
	if sv.cfg.Logf != nil {
		sv.cfg.Logf(format, args...)
	}
}

// checkpointPath returns the path of job id's durable checkpoint.
func (sv *Supervisor) checkpointPath(id string) string {
	return filepath.Join(sv.ckDir, id+".ck")
}

// Submit admits one job: validate, apply defaults, check quotas,
// journal durably, enqueue. The returned status is the job's after
// admission: running when a free slot started it at once, queued
// otherwise. A *RejectError
// signals backpressure or a quota; any other error is either an invalid
// spec or a journal write failure.
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
	if len(sv.queue) >= sv.limits.MaxQueued {
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
	sv.queue = append(sv.queue, j)
	sv.tenantAdmitted[j.tenant]++
	sv.dobs.JobAdmitted(id, j.tenant)
	sv.admitLocked()
	return j.statusLocked(), nil
}

// reject counts and returns one admission refusal.
func (sv *Supervisor) reject(reason string, retryAfter time.Duration) *RejectError {
	sv.dobs.Rejected(reason)
	return &RejectError{Reason: reason, RetryAfter: retryAfter}
}

// Cancel gracefully ends job id: a queued job is retired immediately;
// a running one finishes its in-flight epoch (checkpointing as usual)
// and is retired at the next epoch boundary. Either way the last
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
		for i, qj := range sv.queue {
			if qj == j {
				sv.queue = append(sv.queue[:i:i], sv.queue[i+1:]...)
				break
			}
		}
		sv.finalizeLocked(j, JobCancelled, nil)
		sv.updateGaugesLocked()
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

// finalizeLocked retires a job into a terminal state: counters and —
// critically — the journal entry, whose durable removal is what keeps
// the job from being re-adopted. The caller holds Supervisor.mu and
// refreshes the gauges next: by releasing the slot (releaseLocked) of a
// job that was running, directly for one that was only queued.
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
}

// updateGaugesLocked refreshes the queue/active/tenant gauges; the
// caller holds Supervisor.mu.
func (sv *Supervisor) updateGaugesLocked() {
	sv.dobs.SetQueueDepth(len(sv.queue))
	sv.dobs.SetActive(sv.active)
	for tenant, n := range sv.tenantAdmitted {
		sv.dobs.SetTenantActive(tenant, n)
	}
}

// admitLocked starts the oldest queued jobs while slots are free, each
// on its own goroutine; the caller holds Supervisor.mu. Nothing is
// admitted before Start or once its context is cancelled: a draining
// daemon's queued jobs stay queued and journaled for the next
// incarnation.
func (sv *Supervisor) admitLocked() {
	if sv.ctx != nil && sv.ctx.Err() == nil {
		for len(sv.queue) > 0 && sv.active < sv.limits.MaxActive {
			j := sv.queue[0]
			sv.queue = sv.queue[1:]
			sv.active++
			j.state = JobRunning
			sv.wg.Add(1)
			go sv.run(sv.ctx, j)
		}
	}
	sv.updateGaugesLocked()
}

// releaseLocked returns one slot and hands it to the oldest queued job;
// the caller holds Supervisor.mu.
func (sv *Supervisor) releaseLocked() {
	sv.active--
	sv.admitLocked()
}

// run is one running job: build the session, then step it one epoch at
// a time at its own pace until it ends, honouring a cancel or a tenant
// eviction at each epoch boundary. A cancelled ctx (the daemon
// draining) ends the session from inside Step, preserved.
func (sv *Supervisor) run(ctx context.Context, j *job) {
	defer sv.wg.Done()
	rt, err := sv.buildRuntime(j)
	if err != nil {
		sv.mu.Lock()
		defer sv.mu.Unlock()
		sv.finalizeLocked(j, JobFailed, err)
		sv.releaseLocked()
		return
	}
	for done := false; !done; {
		sv.mu.Lock()
		var evict error
		switch {
		case j.cancel:
			evict = errCancelled
		case sv.tenantKilled[j.tenant]:
			evict = errFaultBudget
		}
		sv.mu.Unlock()

		var info tuner.StepInfo
		if evict != nil {
			rt.Abort(evict)
			info = tuner.StepInfo{Done: true, Err: evict}
		} else {
			t0 := time.Now()
			info = rt.Step(ctx)
			sv.dobs.StepObserved(time.Since(t0).Seconds())
		}

		sv.mu.Lock()
		done = sv.settleLocked(j, rt, info)
		sv.mu.Unlock()
	}
}

// settleLocked folds one step's outcome into the job: progress for the
// API, the tenant's fault meter, and — when the session has ended — the
// slot and the job's final state. It reports whether the job is over;
// the caller holds Supervisor.mu.
func (sv *Supervisor) settleLocked(j *job, rt *tuner.SessionRuntime, info tuner.StepInfo) bool {
	j.epochs = rt.Epochs()
	j.bytes = rt.Bytes()
	j.x = append(j.x[:0], rt.LastX()...)
	j.tput = rt.LastThroughput()
	j.transients = rt.Transients()
	if info.Transient {
		sv.tenantFaults[j.tenant]++
		sv.dobs.TenantFaults(j.tenant, 1)
		if sv.limits.TenantFaultBudget > 0 && sv.tenantFaults[j.tenant] >= sv.limits.TenantFaultBudget && !sv.tenantKilled[j.tenant] {
			sv.tenantKilled[j.tenant] = true
			sv.logf("service: tenant %s exhausted its fault budget (%d transient epochs); evicting its jobs", j.tenant, sv.tenantFaults[j.tenant])
		}
	}
	if !info.Done {
		return false
	}
	switch {
	case errors.Is(info.Err, context.Canceled) || errors.Is(info.Err, context.DeadlineExceeded):
		// Daemon shutdown, at an epoch boundary or mid-epoch: the
		// session preserved its transfer and the journal entry stays,
		// so the next incarnation re-adopts the job from its last
		// checkpoint.
		j.state = JobInterrupted
		j.err = nil
		sv.tenantAdmitted[j.tenant]--
	case j.cancel:
		sv.finalizeLocked(j, JobCancelled, nil)
	case errors.Is(info.Err, errFaultBudget):
		sv.finalizeLocked(j, JobEvicted, errFaultBudget)
	case info.Err != nil:
		sv.finalizeLocked(j, JobFailed, info.Err)
	default:
		sv.finalizeLocked(j, JobDone, nil)
	}
	sv.releaseLocked()
	return true
}
