package obs

import (
	"sync"
	"sync/atomic"
)

// ObserverConfig configures NewObserver.
type ObserverConfig struct {
	// EventBuffer is the Recorder ring capacity; DefaultEventBuffer
	// when zero.
	EventBuffer int
	// EventSink, when non-nil, receives every event as one JSON line
	// (a JSONL trace).
	EventSink interface{ Write(p []byte) (int, error) }
}

// Observer is the top-level observation handle: one metrics Registry,
// one event Recorder, the session instruments every session shares, and
// the set of per-session views feeding the /status endpoint. A nil
// *Observer is a valid no-op, as are all handles derived from it.
type Observer struct {
	reg *Registry
	rec *Recorder
	m   sessionMetrics

	mu       sync.Mutex
	sessions []*SessionObs
	byID     map[string]*SessionObs
}

// sessionMetrics is the session families: one unlabelled instrument
// each, registered once per Observer and summed over every session.
// /metrics counts the process; /status and the event stream describe
// each session.
type sessionMetrics struct {
	epochs, bytes, dials, reused, retries, degraded  *Counter
	transient, retriggers, ckWrites, evictions       *Counter
	histHits, histMisses, histRecs, files, stripeRtx *Counter
	rlExplore                                        *Counter
	deadTime, ckSeconds, firstByte, stripeRTT        *Histogram
	stripeRate                                       *Histogram
}

// NewObserver returns an Observer with a fresh registry and recorder.
func NewObserver(cfg ObserverConfig) *Observer {
	r := NewRegistry()
	return &Observer{
		reg:  r,
		rec:  NewRecorder(cfg.EventBuffer, cfg.EventSink),
		byID: make(map[string]*SessionObs),
		m: sessionMetrics{
			epochs:     r.Counter(MetricEpochs, "Completed control epochs."),
			bytes:      r.Counter(MetricBytes, "Payload bytes acknowledged."),
			dials:      r.Counter(MetricDials, "New data connections established."),
			reused:     r.Counter(MetricReused, "Warm streams reused instead of dialed."),
			retries:    r.Counter(MetricRetries, "Transient-error retries inside epochs."),
			degraded:   r.Counter(MetricDegraded, "Stream-slots run below requested concurrency."),
			transient:  r.Counter(MetricTransientEpochs, "Epochs lost to transient failures."),
			retriggers: r.Counter(MetricRetriggers, "Epsilon-monitor search restarts."),
			ckWrites:   r.Counter(MetricCheckpointWrites, "Durable checkpoint writes."),
			evictions:  r.Counter(MetricStripeEvictions, "Dead stripes evicted from the warm pool."),
			histHits:   r.Counter(MetricHistoryHits, "History lookups that warm-started a session."),
			histMisses: r.Counter(MetricHistoryMisses, "History lookups without a usable prediction."),
			histRecs:   r.Counter(MetricHistoryRecords, "Tuning outcomes recorded into the history store."),
			files:      r.Counter(MetricFilesCompleted, "Dataset files completed (receiver truth)."),
			stripeRtx:  r.Counter(MetricStripeRetrans, "Retransmitted segments observed between epoch-boundary samples."),
			rlExplore:  r.Counter(MetricRLExplorations, "Epochs where a learned strategy explored a random action."),
			deadTime:   r.Histogram(MetricDeadTime, "Per-epoch dead time in seconds.", DefaultLatencyBuckets),
			ckSeconds:  r.Histogram(MetricCheckpointSeconds, "Checkpoint write latency in wall seconds.", DefaultLatencyBuckets),
			firstByte:  r.Histogram(MetricFirstByteLag, "Delay from epoch start to first payload byte in seconds.", DefaultLatencyBuckets),
			stripeRTT:  r.Histogram(MetricStripeRTT, "Per-stripe kernel smoothed RTT at epoch boundaries in seconds.", DefaultLatencyBuckets),
			stripeRate: r.Histogram(MetricStripeRate, "Per-stripe kernel delivery-rate estimate in bytes/second.", DefaultRateBuckets),
		},
	}
}

// Registry returns the observer's metrics registry; nil on a nil
// receiver.
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Recorder returns the observer's event recorder; nil on a nil
// receiver.
func (o *Observer) Recorder() *Recorder {
	if o == nil {
		return nil
	}
	return o.rec
}

// Event records a raw event. Most call sites should go through a
// SessionObs method instead; Event exists for session-less emitters
// such as faultnet. No-op on a nil receiver.
func (o *Observer) Event(ev Event) {
	if o == nil {
		return
	}
	o.rec.Record(ev)
}

// Metric names emitted by the stack. Each is documented in
// OBSERVABILITY.md; TestObservabilityDocCoverage fails when one is
// missing. The session families carry no label: each is one series,
// summed over every session of the process.
const (
	// MetricEpochs counts completed control epochs.
	MetricEpochs = "dstune_epochs_total"
	// MetricDeadTime is the per-epoch dead-time distribution
	// (seconds).
	MetricDeadTime = "dstune_epoch_dead_seconds"
	// MetricBytes counts payload bytes acknowledged.
	MetricBytes = "dstune_bytes_total"
	// MetricFilesCompleted counts dataset files completed (receiver
	// truth).
	MetricFilesCompleted = "gridftp_files_completed_total"
	// MetricFirstByteLag is the per-epoch distribution of the delay
	// between epoch start and the first payload byte (seconds).
	MetricFirstByteLag = "gridftp_first_byte_lag_seconds"
	// MetricDials counts new data connections established.
	MetricDials = "dstune_dials_total"
	// MetricReused counts warm streams reused instead of dialed.
	MetricReused = "dstune_reused_streams_total"
	// MetricRetries counts transient-error retries inside epochs.
	MetricRetries = "dstune_retries_total"
	// MetricDegraded counts stream-slots that ran below the requested
	// concurrency.
	MetricDegraded = "dstune_degraded_streams_total"
	// MetricTransientEpochs counts epochs lost to transient failures.
	MetricTransientEpochs = "dstune_transient_epochs_total"
	// MetricRetriggers counts ε-monitor search restarts.
	MetricRetriggers = "dstune_retriggers_total"
	// MetricCheckpointWrites counts durable checkpoint writes.
	MetricCheckpointWrites = "dstune_checkpoint_writes_total"
	// MetricCheckpointSeconds is the checkpoint write-latency
	// distribution (wall seconds).
	MetricCheckpointSeconds = "dstune_checkpoint_write_seconds"
	// MetricStripeEvictions counts dead stripes evicted from the warm
	// pool.
	MetricStripeEvictions = "dstune_stripe_evictions_total"
	// MetricFaults counts injected faults by kind.
	MetricFaults = "dstune_faults_injected_total"
	// MetricServerConns counts control/data connections accepted by
	// gridftpd.
	MetricServerConns = "gridftpd_connections_total"
	// MetricServerBytes counts payload bytes received by gridftpd.
	MetricServerBytes = "gridftpd_bytes_received_total"
	// MetricServerTokens is the number of live transfer tokens on
	// gridftpd.
	MetricServerTokens = "gridftpd_tokens"
	// MetricServerExpired counts transfer tokens expired by the
	// gridftpd janitor.
	MetricServerExpired = "gridftpd_expired_tokens_total"
	// MetricHistoryHits counts history-store lookups that warm-started
	// a session with a prediction.
	MetricHistoryHits = "dstune_history_hits_total"
	// MetricHistoryMisses counts history-store lookups that found no
	// usable prediction (the session cold-started).
	MetricHistoryMisses = "dstune_history_misses_total"
	// MetricHistoryRecords counts tuning outcomes recorded into the
	// history store.
	MetricHistoryRecords = "dstune_history_records_total"
	// MetricStripeRTT is the distribution of per-stripe kernel
	// smoothed RTT samples at epoch boundaries (seconds).
	MetricStripeRTT = "gridftp_stripe_rtt_seconds"
	// MetricStripeRate is the distribution of per-stripe kernel
	// delivery-rate estimates (bytes/s).
	MetricStripeRate = "gridftp_stripe_delivery_bytes_per_second"
	// MetricStripeRetrans counts retransmitted segments observed
	// across the stripe between epoch-boundary samples.
	MetricStripeRetrans = "gridftp_stripe_retransmits_total"
	// MetricRLExplorations counts epochs where a learned strategy's
	// RNG forced a random (exploring) action instead of the greedy
	// one.
	MetricRLExplorations = "dstune_rl_explorations_total"
)

// EpochStats is the per-epoch observation a SessionObs ingests. It
// mirrors the authoritative xfer.Report fields without importing xfer,
// keeping obs dependency-free.
type EpochStats struct {
	// Throughput is mean payload throughput over the epoch (bytes/s).
	Throughput float64
	// BestCase is throughput with dead time excluded (bytes/s).
	BestCase float64
	// Bytes is the payload volume acknowledged this epoch.
	Bytes float64
	// DeadTime is non-transferring time within the epoch (seconds).
	DeadTime float64
	// Dials counts connections established this epoch.
	Dials int
	// ReusedStreams counts warm streams reused this epoch.
	ReusedStreams int
	// Retries counts transient-error retries this epoch.
	Retries int
	// DegradedStreams counts stream-slots below requested concurrency.
	DegradedStreams int
	// Files counts dataset files completed this epoch (receiver
	// truth; zero for bulk memory-to-memory epochs).
	Files int
	// FirstByteLag is the delay between the epoch's start and its
	// first payload byte, in seconds (zero when unmeasured).
	FirstByteLag float64
}

// SessionStatus is one session's live state as served by /status.
type SessionStatus struct {
	// ID is the session's stable identifier.
	ID string `json:"id"`
	// Strategy is the tuning strategy name.
	Strategy string `json:"strategy,omitempty"`
	// Epochs is the number of completed epochs.
	Epochs int `json:"epochs"`
	// X is the parameter vector currently in play.
	X []int `json:"x,omitempty"`
	// Throughput is the last observed mean throughput (bytes/s).
	Throughput float64 `json:"throughput"`
	// BestCase is the last dead-time-compensated throughput (bytes/s).
	BestCase float64 `json:"best_case"`
	// Bytes is the cumulative payload volume (bytes).
	Bytes float64 `json:"bytes"`
	// DeadTime is the last epoch's dead time (seconds).
	DeadTime float64 `json:"dead_seconds"`
	// Dials is the cumulative count of connections established.
	Dials int `json:"dials"`
	// ReusedStreams is the cumulative count of warm streams reused.
	ReusedStreams int `json:"reused_streams"`
	// Retries is the cumulative transient-retry count.
	Retries int `json:"retries"`
	// DegradedStreams is the cumulative degraded stream-slot count.
	DegradedStreams int `json:"degraded_streams"`
	// Files is the cumulative count of dataset files completed.
	Files int `json:"files,omitempty"`
	// TransientEpochs counts epochs lost to transient failures.
	TransientEpochs int `json:"transient_epochs"`
	// TransientBudget is the remaining tolerated consecutive transient
	// failures.
	TransientBudget int `json:"transient_budget"`
	// Retriggers counts ε-monitor search restarts.
	Retriggers int `json:"retriggers"`
	// Checkpoints counts durable checkpoint writes.
	Checkpoints int `json:"checkpoints"`
	// Pool is the number of live warm data stripes (gridftp client).
	Pool int `json:"pool,omitempty"`
	// Clock is the transfer clock at the last event (seconds).
	Clock float64 `json:"clock_seconds"`
	// Done reports whether the session has finished.
	Done bool `json:"done"`
	// Err is the terminal error, if the session failed.
	Err string `json:"error,omitempty"`
}

// Status is the /status document: every registered session, in
// registration order.
type Status struct {
	// Sessions lists each session's live state.
	Sessions []SessionStatus `json:"sessions"`
}

// Status snapshots every session's live state. Nil receiver returns a
// zero Status.
func (o *Observer) Status() Status {
	if o == nil {
		return Status{}
	}
	o.mu.Lock()
	sessions := make([]*SessionObs, len(o.sessions))
	copy(sessions, o.sessions)
	o.mu.Unlock()
	st := Status{Sessions: make([]SessionStatus, 0, len(sessions))}
	for _, s := range sessions {
		st.Sessions = append(st.Sessions, s.Status())
	}
	return st
}

// Session returns the session view registered under id, creating it on
// first use. Sessions appear in /status in creation order; they share
// the Observer's unlabelled instruments, so a new session adds no
// series to /metrics. Returns nil (a no-op view) on a nil receiver.
func (o *Observer) Session(id string) *SessionObs {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if s, ok := o.byID[id]; ok {
		return s
	}
	s := &SessionObs{o: o, sessionMetrics: &o.m, id: id}
	s.st.ID = id
	o.byID[id] = s
	o.sessions = append(o.sessions, s)
	return s
}

// SessionObs is one session's observation view: it feeds the shared
// session instruments, keeps the session's /status entry, and emits
// session-scoped events. A nil *SessionObs is a valid no-op. All
// methods are safe for concurrent use.
type SessionObs struct {
	o *Observer
	*sessionMetrics
	id string

	// muted silences what a strategy reports (see Muted).
	muted atomic.Bool

	mu sync.Mutex
	st SessionStatus
}

// Muted runs f with the reports a strategy makes — Retrigger and
// RLAction — silenced: they emit no event and move no instrument. The
// engine replays a resumed checkpoint's epoch log under it, so epochs
// an earlier incarnation already reported are not reported twice.
func (s *SessionObs) Muted(f func()) {
	if s == nil {
		f()
		return
	}
	s.muted.Store(true)
	defer s.muted.Store(false)
	f()
}

// Status snapshots the session's live state; a zero value on a nil
// receiver.
func (s *SessionObs) Status() SessionStatus {
	if s == nil {
		return SessionStatus{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.st
	st.X = append([]int(nil), s.st.X...)
	return st
}

// SetStrategy records the session's strategy name for /status.
func (s *SessionObs) SetStrategy(name string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.st.Strategy = name
	s.mu.Unlock()
}

// Propose records the strategy proposing vector x at transfer clock t,
// with prev the previously proposed vector (nil on the first epoch).
func (s *SessionObs) Propose(t float64, x, prev []int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.st.X = append(s.st.X[:0], x...)
	s.st.Clock = t
	epoch := s.st.Epochs
	s.mu.Unlock()
	s.o.Event(Event{T: t, Type: EventPropose, Session: s.id, Epoch: epoch,
		X: append([]int(nil), x...), Prev: append([]int(nil), prev...)})
}

// EpochStart records the data plane beginning epoch with vector x at
// transfer clock t.
func (s *SessionObs) EpochStart(t float64, epoch int, x []int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.st.X = append(s.st.X[:0], x...)
	s.st.Clock = t
	s.mu.Unlock()
	s.o.Event(Event{T: t, Type: EventEpochStart, Session: s.id, Epoch: epoch,
		X: append([]int(nil), x...)})
}

// EpochEnd records the epoch's observed report. transient marks an
// epoch synthesized from a transient failure (its stats are zero);
// budget is the remaining transient-failure budget after this epoch.
func (s *SessionObs) EpochEnd(t float64, epoch int, x []int, rep EpochStats, transient bool, budget int) {
	if s == nil {
		return
	}
	s.epochs.Inc()
	s.bytes.Add(int64(rep.Bytes))
	s.dials.Add(int64(rep.Dials))
	s.reused.Add(int64(rep.ReusedStreams))
	s.retries.Add(int64(rep.Retries))
	s.degraded.Add(int64(rep.DegradedStreams))
	s.files.Add(int64(rep.Files))
	s.deadTime.Observe(rep.DeadTime)
	if rep.FirstByteLag > 0 {
		s.firstByte.Observe(rep.FirstByteLag)
	}
	if transient {
		s.transient.Inc()
	}
	s.mu.Lock()
	s.st.Epochs = epoch + 1
	s.st.Throughput = rep.Throughput
	s.st.BestCase = rep.BestCase
	s.st.Bytes += rep.Bytes
	s.st.DeadTime = rep.DeadTime
	s.st.Dials += rep.Dials
	s.st.ReusedStreams += rep.ReusedStreams
	s.st.Retries += rep.Retries
	s.st.DegradedStreams += rep.DegradedStreams
	s.st.Files += rep.Files
	s.st.TransientBudget = budget
	if transient {
		s.st.TransientEpochs++
	}
	s.st.Clock = t
	s.mu.Unlock()
	s.o.Event(Event{T: t, Type: EventEpochEnd, Session: s.id, Epoch: epoch,
		X: append([]int(nil), x...), Throughput: rep.Throughput,
		BestCase: rep.BestCase, Bytes: rep.Bytes, DeadTime: rep.DeadTime,
		Dials: rep.Dials, Reused: rep.ReusedStreams, Retries: rep.Retries,
		Degraded: rep.DegradedStreams, Transient: transient})
	if rep.Files > 0 {
		s.o.Event(Event{T: t, Type: EventFileCompleted, Session: s.id,
			Epoch: epoch, Files: rep.Files})
	}
}

// Observe records the fitness delta handed to the strategy: delta is
// the relative change against the previous observation (0 on the
// first).
func (s *SessionObs) Observe(t float64, epoch int, delta float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.st.Clock = t
	s.mu.Unlock()
	s.o.Event(Event{T: t, Type: EventObserve, Session: s.id, Epoch: epoch, Delta: delta})
}

// Retrigger records an armed ε-monitor restarting the search after
// observing relative change delta.
func (s *SessionObs) Retrigger(t float64, delta float64) {
	if s == nil || s.muted.Load() {
		return
	}
	s.retriggers.Inc()
	s.mu.Lock()
	s.st.Retriggers++
	epoch := s.st.Epochs
	s.mu.Unlock()
	s.o.Event(Event{T: t, Type: EventRetriggerEpsilon, Session: s.id, Epoch: epoch, Delta: delta})
}

// CheckpointWritten records a durable checkpoint write covering epochs
// completed epochs, taking seconds of wall time. The latency lands in
// metrics only — never in the event — so Sim-backed traces stay
// deterministic.
func (s *SessionObs) CheckpointWritten(t float64, epochs int, seconds float64) {
	if s == nil {
		return
	}
	s.ckWrites.Inc()
	s.ckSeconds.Observe(seconds)
	s.mu.Lock()
	s.st.Checkpoints++
	s.mu.Unlock()
	s.o.Event(Event{T: t, Type: EventCheckpointWritten, Session: s.id, Epoch: epochs})
}

// WarmStart records a session consulting the history knowledge plane
// for its starting vector (transfer clock t, normally 0): on a hit, x
// is the adopted prediction; on a miss, x is nil and the session
// cold-starts.
func (s *SessionObs) WarmStart(t float64, x []int, hit bool) {
	if s == nil {
		return
	}
	detail := "miss"
	if hit {
		s.histHits.Inc()
		detail = "hit"
	} else {
		s.histMisses.Inc()
	}
	s.o.Event(Event{T: t, Type: EventWarmStart, Session: s.id,
		X: append([]int(nil), x...), Detail: detail})
}

// RLAction records a learned strategy committing to its next action:
// the chosen vector, the load-context bucket it was chosen in, the
// exploration probability in force, the action's value estimate, and
// whether the RNG forced exploration. Bumps the exploration counter
// on explore; the event is where ε and the value estimate are read.
func (s *SessionObs) RLAction(t float64, epoch int, x []int, bucket int, eps, q float64, explore bool) {
	if s == nil || s.muted.Load() {
		return
	}
	detail := "exploit"
	if explore {
		s.rlExplore.Inc()
		detail = "explore"
	}
	s.o.Event(Event{T: t, Type: EventRLAction, Session: s.id, Epoch: epoch,
		X: append([]int(nil), x...), Bucket: bucket, Epsilon: eps, QValue: q,
		Detail: detail})
}

// HistoryRecorded counts a tuning outcome recorded into the history
// store. It moves metrics only — no event — because recording happens
// at run teardown, where an event's timestamp would be wall-clock
// noise in otherwise deterministic traces.
func (s *SessionObs) HistoryRecorded() {
	if s == nil {
		return
	}
	s.histRecs.Inc()
}

// StripeDialed records the warm data plane establishing a new stripe
// connection; pool is the resulting live stripe count, kept in the
// session's status.
func (s *SessionObs) StripeDialed(t float64, pool int) {
	if s == nil {
		return
	}
	s.SetPool(pool)
	s.o.Event(Event{T: t, Type: EventStripeDialed, Session: s.id, Dials: 1})
}

// StripeEvicted records a dead stripe leaving the warm pool; detail
// carries the eviction reason.
func (s *SessionObs) StripeEvicted(t float64, detail string) {
	if s == nil {
		return
	}
	s.evictions.Inc()
	s.o.Event(Event{T: t, Type: EventStripeEvicted, Session: s.id, Detail: detail})
}

// StripeKernel records one data stripe's kernel TCP sample at an
// epoch boundary (getsockopt(TCP_INFO)): the smoothed RTT and its
// variance in seconds, the congestion window in segments, the
// kernel's delivery-rate estimate in bytes/second (zero when the
// kernel reports none), and the stripe's cumulative retransmit
// counter.
func (s *SessionObs) StripeKernel(t float64, stripe, cwnd int, rtt, rttvar, rate float64, retrans int64) {
	if s == nil {
		return
	}
	s.stripeRTT.Observe(rtt)
	if rate > 0 {
		s.stripeRate.Observe(rate)
	}
	s.o.Event(Event{T: t, Type: EventStripeKernelStats, Session: s.id,
		Stripe: stripe, RTT: rtt, RTTVar: rttvar, Cwnd: cwnd, Rate: rate,
		Retrans: retrans})
}

// KernelRetrans counts n retransmitted segments observed across the
// stripe since the previous epoch-boundary sample.
func (s *SessionObs) KernelRetrans(n int64) {
	if s == nil {
		return
	}
	s.stripeRtx.Add(n)
}

// SetPool records the session's warm-pool size in its status without
// emitting an event (used when stripes are parked between epochs).
func (s *SessionObs) SetPool(n int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.st.Pool = n
	s.mu.Unlock()
}

// Finish marks the session done, recording its terminal error if any.
func (s *SessionObs) Finish(err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.st.Done = true
	if err != nil {
		s.st.Err = err.Error()
	}
	s.mu.Unlock()
}

// FaultKind labels an injected fault for metrics and events.
type FaultKind string

// The fault vocabulary of the faultnet fabric.
const (
	// FaultDialRefusal is an injected connection refusal at dial time.
	FaultDialRefusal FaultKind = "dial-refusal"
	// FaultReset is an injected mid-stream connection reset.
	FaultReset FaultKind = "reset"
)

// FaultInjected records the faultnet fabric injecting a fault of the
// given kind; detail carries the affected address. No-op on a nil
// receiver.
func (o *Observer) FaultInjected(kind FaultKind, detail string) {
	if o == nil {
		return
	}
	o.reg.Counter(MetricFaults, "Injected faults by kind.", L("kind", string(kind))).Inc()
	o.Event(Event{Type: EventFaultInjected, Detail: string(kind) + " " + detail})
}

// ServerMetrics is gridftpd's instrument bundle. A nil *ServerMetrics
// is a valid no-op; all methods are safe for concurrent use.
type ServerMetrics struct {
	conns   *Counter
	bytes   *Counter
	tokens  *Gauge
	expired *Counter
}

// ServerMetrics registers and returns gridftpd's instrument bundle;
// nil on a nil receiver.
func (o *Observer) ServerMetrics() *ServerMetrics {
	if o == nil {
		return nil
	}
	return &ServerMetrics{
		conns:   o.reg.Counter(MetricServerConns, "Connections accepted by gridftpd."),
		bytes:   o.reg.Counter(MetricServerBytes, "Payload bytes received by gridftpd."),
		tokens:  o.reg.Gauge(MetricServerTokens, "Live transfer tokens on gridftpd."),
		expired: o.reg.Counter(MetricServerExpired, "Transfer tokens expired by the janitor."),
	}
}

// Conn counts one accepted connection.
func (m *ServerMetrics) Conn() {
	if m == nil {
		return
	}
	m.conns.Inc()
}

// AddBytes counts n received payload bytes.
func (m *ServerMetrics) AddBytes(n int64) {
	if m == nil {
		return
	}
	m.bytes.Add(n)
}

// SetTokens updates the live transfer-token gauge.
func (m *ServerMetrics) SetTokens(n int) {
	if m == nil {
		return
	}
	m.tokens.Set(float64(n))
}

// Expired counts n tokens expired by the janitor.
func (m *ServerMetrics) Expired(n int) {
	if m == nil {
		return
	}
	m.expired.Add(int64(n))
}
