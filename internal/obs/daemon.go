package obs

// Metric names emitted by the dstuned service plane. Like the dstune_*
// families, each is documented in OBSERVABILITY.md and covered by
// TestObservabilityDocCoverage.
const (
	// MetricDaemonSubmitted counts jobs submitted to the control API,
	// accepted or not.
	MetricDaemonSubmitted = "dstuned_jobs_submitted_total"
	// MetricDaemonRejected counts jobs refused by admission control,
	// labeled by reason (queue-full, tenant-quota, fault-budget,
	// duplicate, draining).
	MetricDaemonRejected = "dstuned_jobs_rejected_total"
	// MetricDaemonAdmitted counts jobs accepted and journaled.
	MetricDaemonAdmitted = "dstuned_jobs_admitted_total"
	// MetricDaemonAdopted counts journaled jobs re-adopted after a
	// restart.
	MetricDaemonAdopted = "dstuned_jobs_adopted_total"
	// MetricDaemonCompleted counts jobs that ended cleanly.
	MetricDaemonCompleted = "dstuned_jobs_completed_total"
	// MetricDaemonFailed counts jobs that ended with an error.
	MetricDaemonFailed = "dstuned_jobs_failed_total"
	// MetricDaemonCancelled counts jobs ended by DELETE /jobs/{id}.
	MetricDaemonCancelled = "dstuned_jobs_cancelled_total"
	// MetricDaemonEvicted counts jobs force-ended by the supervisor
	// (exhausted tenant fault budget).
	MetricDaemonEvicted = "dstuned_jobs_evicted_total"
	// MetricDaemonQueueDepth is the number of admitted jobs waiting
	// for a running slot.
	MetricDaemonQueueDepth = "dstuned_queue_depth"
	// MetricDaemonActive is the number of sessions currently running.
	MetricDaemonActive = "dstuned_active_sessions"
	// MetricDaemonStepSeconds is the wall-clock duration of one
	// session step (propose, epoch, settle, checkpoint), over all
	// sessions.
	MetricDaemonStepSeconds = "dstuned_step_seconds"
	// MetricDaemonTenantActive is the per-tenant count of admitted
	// (queued + running) jobs, labeled by tenant.
	MetricDaemonTenantActive = "dstuned_tenant_active_jobs"
	// MetricDaemonTenantFaults is the per-tenant cumulative count of
	// transient-failure epochs, the meter behind the tenant fault
	// budget, labeled by tenant.
	MetricDaemonTenantFaults = "dstuned_tenant_transient_epochs_total"
)

// DaemonObs is the dstuned supervisor's instrument bundle: admission,
// adoption, eviction, and step-latency metrics plus the job lifecycle
// events. A nil *DaemonObs is a valid no-op; all methods are safe for
// concurrent use.
type DaemonObs struct {
	o          *Observer
	submitted  *Counter
	admitted   *Counter
	adopted    *Counter
	completed  *Counter
	failed     *Counter
	cancelled  *Counter
	evicted    *Counter
	queueDepth *Gauge
	active     *Gauge
	stepTime   *Histogram
}

// Daemon registers and returns the dstuned instrument bundle; nil on a
// nil receiver.
func (o *Observer) Daemon() *DaemonObs {
	if o == nil {
		return nil
	}
	return &DaemonObs{
		o:          o,
		submitted:  o.reg.Counter(MetricDaemonSubmitted, "Jobs submitted to the control API."),
		admitted:   o.reg.Counter(MetricDaemonAdmitted, "Jobs accepted and journaled."),
		adopted:    o.reg.Counter(MetricDaemonAdopted, "Journaled jobs re-adopted after a restart."),
		completed:  o.reg.Counter(MetricDaemonCompleted, "Jobs that ended cleanly."),
		failed:     o.reg.Counter(MetricDaemonFailed, "Jobs that ended with an error."),
		cancelled:  o.reg.Counter(MetricDaemonCancelled, "Jobs cancelled through the control API."),
		evicted:    o.reg.Counter(MetricDaemonEvicted, "Jobs force-ended by the supervisor."),
		queueDepth: o.reg.Gauge(MetricDaemonQueueDepth, "Admitted jobs waiting for a running slot."),
		active:     o.reg.Gauge(MetricDaemonActive, "Sessions currently running."),
		stepTime:   o.reg.Histogram(MetricDaemonStepSeconds, "Wall-clock duration of one session step.", DefaultLatencyBuckets),
	}
}

// Submitted counts one submission attempt (accepted or not).
func (d *DaemonObs) Submitted() {
	if d == nil {
		return
	}
	d.submitted.Inc()
}

// Rejected counts one admission refusal for the given reason.
func (d *DaemonObs) Rejected(reason string) {
	if d == nil {
		return
	}
	d.o.reg.Counter(MetricDaemonRejected, "Jobs refused by admission control, by reason.", L("reason", reason)).Inc()
}

// JobAdmitted records a job passing admission control with its journal
// entry durable: the JobAdmitted event plus the admitted counter.
func (d *DaemonObs) JobAdmitted(id, tenant string) {
	if d == nil {
		return
	}
	d.admitted.Inc()
	d.o.Event(Event{Type: EventJobAdmitted, Session: id, Detail: tenant})
}

// JobAdopted records a restarted daemon re-adopting a journaled job
// that had completed epochs checkpointed epochs.
func (d *DaemonObs) JobAdopted(id string, epochs int) {
	if d == nil {
		return
	}
	d.adopted.Inc()
	d.o.Event(Event{Type: EventJobAdopted, Session: id, Epoch: epochs})
}

// JobEvicted records the supervisor force-ending a job for the given
// reason.
func (d *DaemonObs) JobEvicted(id, reason string) {
	if d == nil {
		return
	}
	d.evicted.Inc()
	d.o.Event(Event{Type: EventJobEvicted, Session: id, Detail: reason})
}

// JobDone counts a job's terminal state: cancelled, failed (err
// non-nil), or completed.
func (d *DaemonObs) JobDone(err error, cancelled bool) {
	if d == nil {
		return
	}
	switch {
	case cancelled:
		d.cancelled.Inc()
	case err != nil:
		d.failed.Inc()
	default:
		d.completed.Inc()
	}
}

// SetQueueDepth updates the waiting-job gauge.
func (d *DaemonObs) SetQueueDepth(n int) {
	if d == nil {
		return
	}
	d.queueDepth.Set(float64(n))
}

// SetActive updates the live-session gauge.
func (d *DaemonObs) SetActive(n int) {
	if d == nil {
		return
	}
	d.active.Set(float64(n))
}

// StepObserved records the wall-clock duration of one session step.
func (d *DaemonObs) StepObserved(seconds float64) {
	if d == nil {
		return
	}
	d.stepTime.Observe(seconds)
}

// SetTenantActive updates tenant's admitted-job gauge.
func (d *DaemonObs) SetTenantActive(tenant string, n int) {
	if d == nil {
		return
	}
	d.o.reg.Gauge(MetricDaemonTenantActive, "Admitted (queued + running) jobs per tenant.", L("tenant", tenant)).Set(float64(n))
}

// TenantFaults counts n transient-failure epochs against tenant's
// fault budget.
func (d *DaemonObs) TenantFaults(tenant string, n int) {
	if d == nil {
		return
	}
	d.o.reg.Counter(MetricDaemonTenantFaults, "Cumulative transient-failure epochs per tenant.", L("tenant", tenant)).Add(int64(n))
}
