// Package netem emulates a wide-area network path shared by parallel
// TCP streams.
//
// The model is a discrete-time fluid approximation: each stream holds a
// congestion window advanced by a tcpmodel.Algorithm; its offered rate
// is cwnd/RTT, optionally capped by an externally imposed limit (the
// endpoint CPU scheduler in internal/endpoint). All streams of all
// flows share one bottleneck of fixed capacity with a drop-tail buffer:
// when aggregate demand exceeds capacity the queue grows (inflating the
// effective RTT), and when the buffer is full streams suffer congestion
// losses with a per-RTT probability, desynchronized by the random
// source. A base random loss rate applies at all times, which is what
// keeps a single stream from saturating a long path and makes parallel
// streams pay off — the paper's Figure 1 behaviour.
//
// All rates are bytes per second and times are seconds of virtual time.
package netem

import (
	"fmt"
	"math"

	"dstune/internal/sim"
	"dstune/internal/tcpmodel"
)

// Config describes a network path.
type Config struct {
	// Name labels the path in diagnostics (e.g. "ANL->UChicago").
	Name string
	// Capacity is the bottleneck rate in bytes per second.
	Capacity float64
	// BaseRTT is the propagation round-trip time in seconds.
	BaseRTT float64
	// RandomLoss is the per-packet probability of a non-congestion
	// loss (transmission errors, cross-traffic microbursts).
	RandomLoss float64
	// MSS is the segment size in bytes; zero selects
	// tcpmodel.DefaultMSS.
	MSS float64
	// MaxCwnd caps each stream's window in bytes (the socket buffer
	// limit); zero means uncapped.
	MaxCwnd float64
}

// shedTarget is the utilization the path aims for when the buffer is
// full: congestion losses are sized so that the expected window
// reductions bring aggregate demand down to shedTarget*Capacity, which
// drains the queue. Dropping "just enough" keeps streams
// desynchronized, which is how an ensemble of streams claims more of
// the capacity than a single stream can.
const shedTarget = 0.95

// withDefaults returns cfg with zero fields replaced by defaults.
func (c Config) withDefaults() Config {
	if c.MSS == 0 {
		c.MSS = tcpmodel.DefaultMSS
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Capacity <= 0 {
		return fmt.Errorf("netem: capacity must be positive, got %v", c.Capacity)
	}
	if c.BaseRTT <= 0 {
		return fmt.Errorf("netem: base RTT must be positive, got %v", c.BaseRTT)
	}
	if c.RandomLoss < 0 || c.RandomLoss >= 1 {
		return fmt.Errorf("netem: random loss %v outside [0,1)", c.RandomLoss)
	}
	return nil
}

// Path is one bottleneck link carrying any number of flows.
type Path struct {
	cfg    Config
	buffer float64 // bytes
	queue  float64 // bytes currently queued
	rng    *sim.RNG
	flows  []*Flow

	lastTotal     float64 // aggregate delivered rate, last step
	lastCongested bool
}

// New returns a path for cfg, drawing randomness from rng. It panics if
// cfg is invalid; call Validate first for error handling.
func New(cfg Config, rng *sim.RNG) *Path {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	return &Path{
		cfg:    cfg,
		buffer: cfg.Capacity * cfg.BaseRTT, // one bandwidth-delay product
		rng:    rng,
	}
}

// Config returns the path's configuration (with defaults applied).
func (p *Path) Config() Config { return p.cfg }

// RTT returns the current effective round-trip time: propagation plus
// queueing delay.
func (p *Path) RTT() float64 { return p.cfg.BaseRTT + p.queue/p.cfg.Capacity }

// Utilization returns the delivered fraction of capacity in the last
// step.
func (p *Path) Utilization() float64 { return p.lastTotal / p.cfg.Capacity }

// Congested reports whether the buffer was full in the last step.
func (p *Path) Congested() bool { return p.lastCongested }

// QueueBytes returns the bytes currently queued at the bottleneck.
func (p *Path) QueueBytes() float64 { return p.queue }

// Flows returns the number of flows attached to the path.
func (p *Path) Flows() int { return len(p.flows) }

// stream is one TCP connection within a flow.
type stream struct {
	tcp      tcpmodel.Stream
	rttTimer float64 // time accumulated toward the next window update
	cooldown float64 // time remaining during which further losses are ignored
	rate     float64 // offered rate (cwnd/RTT) for the coming substep
}

// Flow is a group of streams managed as one unit: one transfer process
// in the paper's terms (a concurrency unit running `parallelism`
// streams). The endpoint scheduler caps a flow's aggregate rate.
type Flow struct {
	path *Path
	alg  tcpmodel.Algorithm
	strs []stream

	cap       float64 // aggregate rate cap; 0 = unlimited
	offered   float64 // window-limited desire before the cap, last step
	ahead     float64 // sum of the streams' rates: offered for the coming substep
	rate      float64 // delivered aggregate rate, last step
	delivered float64 // cumulative bytes
	removed   bool
}

// NewFlow attaches a flow of n streams driven by alg to the path. The
// streams start in slow start with slightly jittered initial windows so
// that they do not move in lockstep.
func (p *Path) NewFlow(n int, alg tcpmodel.Algorithm) *Flow {
	if n < 1 {
		n = 1
	}
	f := &Flow{path: p, alg: alg, strs: make([]stream, n)}
	for i := range f.strs {
		st := tcpmodel.NewStream(p.cfg.MSS, p.cfg.MaxCwnd)
		st.Cwnd = p.rng.Jitter(st.Cwnd, 0.3)
		f.strs[i] = stream{tcp: st, rttTimer: p.rng.Float64() * p.cfg.BaseRTT}
	}
	p.flows = append(p.flows, f)
	return f
}

// Remove detaches the flow from its path. Removing twice is a no-op.
func (f *Flow) Remove() {
	if f.removed {
		return
	}
	f.removed = true
	flows := f.path.flows
	for i, g := range flows {
		if g == f {
			f.path.flows = append(flows[:i], flows[i+1:]...)
			return
		}
	}
}

// SetCap imposes an aggregate rate limit in bytes per second on the
// flow: zero removes the limit and a negative value blocks the flow
// entirely (an application-limited sender with nothing to send, e.g. a
// transfer process waiting on a file request).
func (f *Flow) SetCap(c float64) { f.cap = c }

// Cap returns the current aggregate rate limit (0 = unlimited,
// negative = blocked).
func (f *Flow) Cap() float64 { return f.cap }

// Blocked reports whether the flow is fully blocked.
func (f *Flow) Blocked() bool { return f.cap < 0 }

// OfferedRate returns the flow's window-limited desired rate before
// capping, from the last step. The endpoint scheduler uses this as the
// flow's CPU demand signal.
func (f *Flow) OfferedRate() float64 { return f.offered }

// Rate returns the delivered aggregate rate from the last step.
func (f *Flow) Rate() float64 { return f.rate }

// Delivered returns the cumulative bytes delivered by the flow.
func (f *Flow) Delivered() float64 { return f.delivered }

// Streams returns the number of streams in the flow.
func (f *Flow) Streams() int { return len(f.strs) }

// Losses returns the total congestion events across the flow's
// streams.
func (f *Flow) Losses() uint64 {
	var n uint64
	for i := range f.strs {
		n += f.strs[i].tcp.Losses
	}
	return n
}

// minSubstep bounds how finely Step subdivides time, in seconds.
const minSubstep = 0.001

// Step advances the path by dt seconds: computes offered rates,
// resolves contention at the bottleneck, delivers bytes, applies
// losses, and grows windows. Internally the interval is subdivided to
// roughly half the current RTT so that window growth and loss feedback
// interleave at the cadence real TCP would see, even when the caller's
// step is much coarser than the RTT.
func (p *Path) Step(dt float64) {
	if dt <= 0 {
		return
	}
	rtt := p.RTT()
	sub := rtt / 2
	if sub < minSubstep {
		sub = minSubstep
	}
	if sub > dt {
		sub = dt
	}
	n := int(math.Ceil(dt/sub - 1e-9))
	if n < 1 {
		n = 1
	}
	h := dt / float64(n)
	// Flows may have come and gone since the last Step: offer every
	// stream's rate for the first substep; each substep then offers
	// the next one's.
	for _, f := range p.flows {
		ahead := 0.0
		for i := range f.strs {
			s := &f.strs[i]
			s.rate = s.tcp.Rate(rtt)
			ahead += s.rate
		}
		f.ahead = ahead
	}
	for i := 0; i < n; i++ {
		p.step(h)
	}
}

// step advances the path by one substep of h seconds. It walks the
// streams once: the offered rate each stream delivers from was left in
// stream.rate by the walk before, and the walk leaves the rate for the
// substep after, at the RTT this substep's queue sets.
func (p *Path) step(dt float64) {
	rtt := p.RTT()

	// Phase 1: flow caps.
	total := 0.0
	for _, f := range p.flows {
		f.offered = f.ahead
		capped := f.offered
		switch {
		case f.cap < 0:
			capped = 0
		case f.cap > 0 && capped > f.cap:
			capped = f.cap
		}
		// Stash the capped aggregate in rate temporarily; phase 2
		// rescales it into the delivered rate.
		f.rate = capped
		total += capped
	}

	// Phase 2: bottleneck contention and queue dynamics.
	deliverFrac := 1.0
	if total > p.cfg.Capacity {
		deliverFrac = p.cfg.Capacity / total
	}
	p.queue += (total - p.cfg.Capacity) * dt
	congested := false
	if p.queue >= p.buffer {
		p.queue = p.buffer
		congested = true
	}
	if p.queue < 0 {
		p.queue = 0
	}
	p.lastCongested = congested
	// The queue is settled for this substep, so this is the next
	// substep's RTT exactly.
	nextRTT := p.RTT()

	// Per-stream congestion-loss probability for this step. When the
	// buffer is full we size the probability so that the expected
	// aggregate window reduction sheds the overload: a loss cuts a
	// stream's rate by roughly (1-beta) with beta ~ 0.7 for the
	// high-speed algorithms, so p = shed / (0.3 * total) removes
	// about `shed` bytes/s of demand in expectation while leaving
	// most streams untouched — losses stay desynchronized.
	const meanDecrease = 0.3
	pCongStep := 0.0
	if congested && total > 0 {
		shed := total - shedTarget*p.cfg.Capacity
		if shed > 0 {
			pCongStep = shed / (meanDecrease * total)
			if pCongStep > 0.9 {
				pCongStep = 0.9
			}
		}
	}

	// Phase 3: delivery, losses, window evolution, and the next
	// substep's offered rates.
	mss, randomLoss, rng := p.cfg.MSS, p.cfg.RandomLoss, p.rng
	pathRate := 0.0
	for _, f := range p.flows {
		alg := f.alg
		scale := 1.0
		if f.offered > 0 {
			scale = f.rate / f.offered // cap scaling
		}
		flowRate, delivered, ahead := 0.0, f.delivered, 0.0
		for i := range f.strs {
			s := &f.strs[i]
			rate := s.rate * scale * deliverFrac
			flowRate += rate
			delivered += rate * dt

			s.tcp.SinceLoss += dt
			s.tcp.ObserveRTT(rtt)
			s.cooldown -= dt

			// Random loss scales with packets sent this step. The
			// per-substep expected count is small, so the linear
			// approximation to 1-(1-p)^n is accurate and avoids a
			// transcendental call in the hot loop.
			pkts := rate * dt / mss
			pLoss := pCongStep
			if randomLoss > 0 && pkts > 0 {
				pRand := pkts * randomLoss
				if pRand > 0.5 {
					pRand = 0.5
				}
				pLoss = 1 - (1-pLoss)*(1-pRand)
			}

			// rng.Bernoulli(pLoss) with the draw inlined (pLoss < 1:
			// pCongStep <= 0.9 and pRand <= 0.5).
			if pLoss > 0 && s.cooldown <= 0 && sim.Unit(rng.Uint64()) < pLoss {
				alg.OnLoss(&s.tcp)
				// TCP reacts at most once per RTT; when the step is
				// coarser than the RTT, at most once per two steps so
				// short-RTT paths are not cut on every step.
				s.cooldown = math.Max(rtt, 2*dt)
				s.rttTimer = 0
			} else {
				s.rttTimer += dt
				for s.rttTimer >= rtt {
					alg.OnRTT(&s.tcp, rtt)
					s.rttTimer -= rtt
				}
			}
			s.rate = s.tcp.Rate(nextRTT)
			ahead += s.rate
		}
		f.rate = flowRate
		f.delivered = delivered
		f.ahead = ahead
		pathRate += flowRate
	}
	p.lastTotal = pathRate
}
