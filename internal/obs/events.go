package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// EventType names one kind of structured event in the trace stream.
// Every type is one of the constants below and is documented in
// OBSERVABILITY.md.
type EventType string

// The event vocabulary of the tuning stack.
const (
	// EventEpochStart marks the epoch engine handing a parameter vector
	// to the data plane for one epoch.
	EventEpochStart EventType = "EpochStart"
	// EventEpochEnd carries the epoch's observed report: throughput,
	// dead time, stream accounting, and whether the epoch failed
	// transiently.
	EventEpochEnd EventType = "EpochEnd"
	// EventPropose records the strategy's next parameter vector and
	// the delta from the previous proposal.
	EventPropose EventType = "Propose"
	// EventObserve records the fitness handed back to the strategy and
	// its relative change against the previous observation.
	EventObserve EventType = "Observe"
	// EventStripeDialed marks a new data stripe connection being
	// established by the warm data plane.
	EventStripeDialed EventType = "StripeDialed"
	// EventStripeEvicted marks a dead stripe being evicted from the
	// warm pool.
	EventStripeEvicted EventType = "StripeEvicted"
	// EventRetriggerEpsilon marks an armed ε-monitor observing a
	// relative throughput change beyond tolerance and restarting the
	// search.
	EventRetriggerEpsilon EventType = "RetriggerEpsilon"
	// EventCheckpointWritten marks a durable checkpoint write after an
	// epoch.
	EventCheckpointWritten EventType = "CheckpointWritten"
	// EventFaultInjected marks the faultnet fabric injecting a dial
	// refusal or connection reset.
	EventFaultInjected EventType = "FaultInjected"
	// EventWarmStart marks a session consulting the history knowledge
	// plane for its starting vector: Detail is "hit" (X carries the
	// adopted prediction) or "miss" (the run cold-starts).
	EventWarmStart EventType = "WarmStart"
	// EventJobAdmitted marks the dstuned daemon accepting a tuning job
	// past admission control, after its journal entry is durable.
	// Session is the job ID; Detail carries the tenant.
	EventJobAdmitted EventType = "JobAdmitted"
	// EventJobAdopted marks a restarted daemon re-adopting a journaled
	// in-flight job mid-trajectory. Session is the job ID; Epoch is
	// the number of checkpointed epochs the job resumes from.
	EventJobAdopted EventType = "JobAdopted"
	// EventJobEvicted marks the daemon force-ending a job — an
	// exhausted per-tenant fault budget, typically. Session is the
	// job ID; Detail carries the reason.
	EventJobEvicted EventType = "JobEvicted"
	// EventFileCompleted marks dataset files finishing per receiver
	// truth: Files carries how many completed during the epoch.
	EventFileCompleted EventType = "FileCompleted"
	// EventStripeKernelStats carries one data stripe's kernel TCP
	// sample at an epoch boundary (getsockopt(TCP_INFO)): Stripe
	// indexes the surviving stripe, RTT/RTTVar are the kernel's
	// smoothed estimates in seconds, Cwnd the congestion window in
	// segments, Rate the delivery-rate estimate in bytes/second, and
	// Retrans the stripe's cumulative retransmit counter.
	EventStripeKernelStats EventType = "StripeKernelStats"
	// EventRLAction marks the learned strategy (rl-bandit)
	// committing to its next action: X is the chosen vector, Bucket
	// the load-context bucket the choice was made in, Epsilon the
	// exploration probability in force, QValue the chosen action's
	// current value estimate, and Detail is "explore" (the RNG forced
	// a random action) or "exploit" (greedy argmax).
	EventRLAction EventType = "RLAction"
)

// Event is one structured trace record. Fields beyond Seq, T, and Type
// are populated per type; unused fields are omitted from the JSONL
// encoding. T is the transfer clock (seconds) — virtual time under the
// Sim fabric — never wall time, so traces from deterministic fabrics
// are bit-for-bit reproducible.
type Event struct {
	// Seq is the recorder-assigned monotonic sequence number.
	Seq int64 `json:"seq"`
	// T is the transfer-clock timestamp in seconds.
	T float64 `json:"t"`
	// Type discriminates the event.
	Type EventType `json:"type"`
	// Session is the owning session's stable ID, when the event is
	// session-scoped.
	Session string `json:"session,omitempty"`
	// Epoch is the zero-based epoch index, for epoch-scoped events.
	Epoch int `json:"epoch,omitempty"`
	// X is the parameter vector in play.
	X []int `json:"x,omitempty"`
	// Prev is the previous parameter vector (Propose only).
	Prev []int `json:"prev,omitempty"`
	// Throughput is the observed mean throughput in bytes/second.
	Throughput float64 `json:"throughput,omitempty"`
	// BestCase is the dead-time-compensated throughput in
	// bytes/second.
	BestCase float64 `json:"best_case,omitempty"`
	// Bytes is the payload volume moved this epoch.
	Bytes float64 `json:"bytes,omitempty"`
	// DeadTime is the epoch's non-transferring time in seconds.
	DeadTime float64 `json:"dead_time,omitempty"`
	// Dials counts new connections established.
	Dials int `json:"dials,omitempty"`
	// Reused counts warm streams reused from the pool.
	Reused int `json:"reused,omitempty"`
	// Retries counts transient-error retries.
	Retries int `json:"retries,omitempty"`
	// Degraded counts streams below the requested concurrency.
	Degraded int `json:"degraded,omitempty"`
	// Files counts dataset files completed (FileCompleted only).
	Files int `json:"files,omitempty"`
	// Stripe indexes the data stripe (StripeKernelStats only).
	Stripe int `json:"stripe,omitempty"`
	// RTT is the kernel's smoothed round-trip estimate in seconds
	// (StripeKernelStats only).
	RTT float64 `json:"rtt,omitempty"`
	// RTTVar is the kernel's RTT variance estimate in seconds
	// (StripeKernelStats only).
	RTTVar float64 `json:"rttvar,omitempty"`
	// Cwnd is the congestion window in segments (StripeKernelStats
	// only).
	Cwnd int `json:"cwnd,omitempty"`
	// Rate is the kernel's delivery-rate estimate in bytes/second
	// (StripeKernelStats only).
	Rate float64 `json:"rate,omitempty"`
	// Retrans is the stripe's cumulative retransmitted-segment count
	// (StripeKernelStats only).
	Retrans int64 `json:"retrans,omitempty"`
	// Delta is the relative change driving Observe/RetriggerEpsilon,
	// in percent (20 = 20%), the unit of the tuner's tolerance.
	Delta float64 `json:"delta,omitempty"`
	// Bucket is the load-context bucket a learned strategy acted in
	// (RLAction only).
	Bucket int `json:"bucket,omitempty"`
	// Epsilon is the exploration probability in force (RLAction
	// only).
	Epsilon float64 `json:"epsilon,omitempty"`
	// QValue is the chosen action's value estimate (RLAction only).
	QValue float64 `json:"q_value,omitempty"`
	// Transient marks an EpochEnd synthesized from a transient
	// failure.
	Transient bool `json:"transient,omitempty"`
	// Detail is free-form context: fault kind, stripe index, eviction
	// reason.
	Detail string `json:"detail,omitempty"`
}

// Recorder collects Events into a bounded ring buffer and optionally
// mirrors each one as a JSON line to a sink. A nil *Recorder is a
// valid no-op. Recorder is safe for concurrent use.
//
// The ring is held in blocks of eventBlock events, each allocated when
// next first reaches it: a session that records a few hundred events
// holds one block, not the whole capacity (a 65 536-event ring is
// 17.5 MB of Events), and a ring that does fill was never copied or
// freed on the way up.
type Recorder struct {
	mu      sync.Mutex
	seq     int64
	size    int       // ring capacity, in events
	blocks  [][]Event // slot i is blocks[i/eventBlock][i%eventBlock]
	next    int
	wrapped bool
	enc     *json.Encoder
	sinkErr error
}

// DefaultEventBuffer is the ring capacity used when
// ObserverConfig.EventBuffer is zero (NewRecorder's buffer <= 0).
const DefaultEventBuffer = 4096

// eventBlock is the ring's allocation unit, in events.
const eventBlock = 1024

// NewRecorder returns a Recorder holding the last buffer events
// (DefaultEventBuffer when buffer <= 0). When sink is non-nil every
// event is also appended to it as one JSON object per line; sink
// errors are sticky and reported by Err, never propagated to
// recording call sites.
func NewRecorder(buffer int, sink io.Writer) *Recorder {
	if buffer <= 0 {
		buffer = DefaultEventBuffer
	}
	r := &Recorder{size: buffer, blocks: make([][]Event, 0, (buffer+eventBlock-1)/eventBlock)}
	if sink != nil {
		r.enc = json.NewEncoder(sink)
	}
	return r
}

// Record assigns the event its sequence number, stores it in the ring,
// and mirrors it to the JSONL sink when configured. No-op on a nil
// receiver.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ev.Seq = r.seq
	r.seq++
	if r.next/eventBlock == len(r.blocks) {
		r.blocks = append(r.blocks, make([]Event, min(eventBlock, r.size-r.next)))
	}
	r.blocks[r.next/eventBlock][r.next%eventBlock] = ev
	r.next++
	if r.next == r.size {
		r.next = 0
		r.wrapped = true
	}
	if r.enc != nil && r.sinkErr == nil {
		r.sinkErr = r.enc.Encode(ev)
	}
}

// Events returns the buffered events oldest-first. On a nil receiver
// it returns nil.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.wrapped {
		return r.appendSlots(make([]Event, 0, r.next), 0, r.next)
	}
	out := r.appendSlots(make([]Event, 0, r.size), r.next, r.size)
	return r.appendSlots(out, 0, r.next)
}

// appendSlots appends ring slots [from, to) to out, block by block.
func (r *Recorder) appendSlots(out []Event, from, to int) []Event {
	for from < to {
		b, off := from/eventBlock, from%eventBlock
		n := min(to-from, len(r.blocks[b])-off)
		out = append(out, r.blocks[b][off:off+n]...)
		from += n
	}
	return out
}

// Err returns the first error the JSONL sink reported, if any.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sinkErr
}
