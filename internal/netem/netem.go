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
// losses. A base random loss rate per delivered packet applies at all
// times, which is what keeps a single stream from saturating a long path
// and makes parallel streams pay off — the paper's Figure 1 behaviour.
//
// Losses are a hazard, not a per-stream coin: in each substep every
// stream that is not cooling down from its last loss has a loss hazard
// (its delivered packets times the random loss rate, plus the
// congestion term), and each such stream fails independently with
// probability 1-exp(-hazard). One exponential clock per flow realises
// exactly that: it runs down by the flow's summed hazard, and when it
// runs out a stream is picked in proportion to its hazard. Streams of a
// flow therefore lose at different instants — desynchronized by the
// random source — while the simulator draws a random number per loss,
// not per stream and substep.
//
// A window at the path's MaxCwnd is a fixed point of every algorithm's
// OnRTT, and only a loss moves it, so a substep passes over a stream at
// the cap without advancing its round trip, and over a flow whose
// streams are all at the cap and none cooling down without visiting it.
//
// The endpoint CPU, not the network, caps most transfers, so the
// bottleneck is rarely full. A Step in which no substep can fill it is
// calm: the queue stays empty, the RTT is fixed, and flows meet only in
// the order their losses draw from the random source. A calm Step runs
// each flow through all its substeps in one pass, stopping it where its
// loss clock runs out, and fires the losses in the order the
// substep-by-substep loop would, so both orders come to the same bits.
//
// All rates are bytes per second and times are seconds of virtual time.
package netem

import (
	"fmt"
	"math"
	"slices"

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
	now    float64 // virtual time at the start of the next substep

	lastTotal     float64 // aggregate delivered rate, last step
	lastCongested bool

	held []held // a calm Step's flows stopped at a loss, in flow order
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

// stream is one TCP connection within a flow. Its times are absolute
// path times, so a substep only reads them unless something happens.
type stream struct {
	rttFrom   float64 // start of the round trip in progress: the window grows when it is one RTT old
	coolUntil float64 // further losses are ignored in substeps starting before this
	lossAt    float64 // end of the substep of the last loss (or the stream's birth)
	tcp       tcpmodel.Stream
}

// coolEps absorbs the rounding of the path clock when a cool-down ends
// on a substep boundary.
const coolEps = 1e-9

// Flow is a group of streams managed as one unit: one transfer process
// in the paper's terms (a concurrency unit running `parallelism`
// streams). The endpoint scheduler caps a flow's aggregate rate.
type Flow struct {
	strs []stream
	alg  tcpmodel.Algorithm

	cap       float64 // aggregate rate cap; 0 = unlimited
	offered   float64 // window-limited desire before the cap, last step
	rate      float64 // delivered aggregate rate, last step
	delivered float64 // cumulative bytes

	// The streams' sums, kept by delta and recomputed on every Step.
	cwnd    float64 // Σcwnd
	active  float64 // Σcwnd over streams not cooling down
	nActive int     // streams not cooling down
	full    int     // streams whose window is at the path's MaxCwnd

	clock float64 // Exp(1) hazard left before the flow's next loss

	path    *Path
	removed bool
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
		f.strs[i] = stream{rttFrom: p.now - p.rng.Float64()*p.cfg.BaseRTT, lossAt: p.now, tcp: st}
	}
	f.clock = p.rng.ExpFloat64()
	p.flows = append(p.flows, f)
	return f
}

// resum recomputes the flow's sums from its streams at the path's
// current time. Step calls it on entry, so a new flow needs no other.
func (f *Flow) resum() {
	t, maxCwnd := f.path.now+coolEps, f.path.cfg.MaxCwnd
	f.cwnd, f.active, f.nActive, f.full = 0, 0, 0, 0
	for i := range f.strs {
		s := &f.strs[i]
		f.cwnd += s.tcp.Cwnd
		if s.coolUntil <= t {
			f.active += s.tcp.Cwnd
			f.nActive++
		}
		if s.tcp.Cwnd == maxCwnd {
			f.full++
		}
	}
}

// Remove detaches the flow from its path. Removing twice is a no-op.
func (f *Flow) Remove() {
	if f.removed {
		return
	}
	f.removed = true
	if i := slices.Index(f.path.flows, f); i >= 0 {
		// slices.Delete zeroes the vacated tail slot, so the path no
		// longer holds the flow.
		f.path.flows = slices.Delete(f.path.flows, i, i+1)
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
//
// A calm Step, one whose substeps cannot fill the bottleneck (see
// begin), runs flow by flow; any other runs substep by substep. Both
// orders leave the same bits and draw the same random numbers.
func (p *Path) Step(dt float64) {
	if dt <= 0 {
		return
	}
	n, h := p.substeps(dt)
	if p.begin() {
		p.calmStep(n, h)
		return
	}
	for i := 0; i < n; i++ {
		p.step(h)
	}
}

// calmSlack is the relative drift allowed for a flow's Σcwnd, which the
// substeps keep by delta. Each delta rounds it by at most 2⁻⁵³ of its
// size, so it would take some 2³² of them in one Step to drift past
// 10⁻⁶.
const calmSlack = 1e-6

// begin readies the path for a Step. It recomputes every flow's sums —
// the substeps keep them by delta, so this bounds their drift to one
// Step — and reports whether the Step is calm: the queue is empty, the
// path caps windows, and the flows' bounds on their rates, summed in
// flow order, come to at most the capacity. A flow's bound is 0 if it is
// blocked, its cap if it has one, and otherwise the most its windows can
// sum to in the Step over the RTT. Every substep of a calm Step then
// finds the queue empty and the same RTT, delivers every flow's capped
// rate in full and has no congestion hazard, so its flows meet only in
// the order their losses draw from the random source.
func (p *Path) begin() bool {
	for _, f := range p.flows {
		f.resum()
	}
	if p.queue != 0 || p.cfg.MaxCwnd <= 0 {
		return false
	}
	invRTT := 1 / p.RTT()
	total := 0.0
	for _, f := range p.flows {
		switch {
		case f.cap < 0:
		case f.cap > 0:
			total += f.cap
		default:
			total += f.ceil() * (1 + calmSlack) * invRTT
		}
	}
	return total <= p.cfg.Capacity
}

// ceil returns the most the flow's windows can sum to before the next
// Step. A window moves only by OnRTT and OnLoss, which leave it at most
// the larger of MaxCwnd and the MSS, so each can reach at most that or
// what it is now (NewFlow's jitter can leave it above MaxCwnd).
func (f *Flow) ceil() float64 {
	top := max(f.path.cfg.MaxCwnd, f.path.cfg.MSS)
	c := 0.0
	for i := range f.strs {
		c += max(f.strs[i].tcp.Cwnd, top)
	}
	return c
}

// substeps returns how many substeps Step cuts dt into, and their
// length.
func (p *Path) substeps(dt float64) (int, float64) {
	sub := p.RTT() / 2
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
	return n, dt / float64(n)
}

// step advances the path by one substep of dt seconds.
func (p *Path) step(dt float64) {
	rtt := p.RTT()
	invRTT := 1 / rtt

	// Phase 1: offered rates and flow caps.
	total := 0.0
	for _, f := range p.flows {
		// offer stashes the capped aggregate in rate; phase 3 rescales
		// it into the delivered rate.
		total += f.offer(invRTT)
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

	// The hazards. A stream not cooling down loses in this substep with
	// probability 1-exp(-h), h = k*cwnd + hc: hc keeps the congestion
	// probability exactly, and k*cwnd is the random loss rate times the
	// packets the stream delivers, cwnd/RTT * scale * deliverFrac * dt /
	// MSS. Only the flow's cap scale is left to multiply in.
	hc := 0.0
	if pCongStep > 0 {
		hc = -math.Log1p(-pCongStep)
	}
	kPath := deliverFrac * dt * p.cfg.RandomLoss * invRTT / p.cfg.MSS

	// Phase 3: delivery, losses and window evolution.
	t := p.now
	tNext := t + dt
	pathRate := 0.0
	for _, f := range p.flows {
		k := f.scaled(kPath)
		rate := f.rate * deliverFrac
		f.rate = rate
		f.delivered += rate * dt
		pathRate += rate

		// A flow's streams are born together and see the same path RTT,
		// so the first stream's extremes are every stream's.
		f.strs[0].tcp.ObserveRTT(rtt)

		if hz := f.hazard(k, hc); f.runsOut(hz) {
			f.lose(hz, k, hc, rtt, t, dt)
		}
		if !f.still() {
			f.walk(rtt, t, tNext)
		}
	}
	p.lastTotal = pathRate
	p.now = tNext
}

// calm is what every substep of a calm Step holds the same: the RTT,
// the substep's length, and the random loss hazard per byte of window
// before a flow's cap scale. The queue is empty, the bottleneck delivers
// every offered rate in full, and there is no congestion hazard.
type calm struct {
	rtt, invRTT, dt, kPath float64
}

// held is a flow that a calm Step runs on its own, at its substep i,
// which starts at t. When the flow's loss clock runs out, run leaves it
// there, delivered, with the loss of hazard hz at scale k still to fire.
type held struct {
	f        *Flow
	i        int
	t, k, hz float64
}

// calmStep is a calm Step of n substeps of dt, run flow by flow. Each
// flow runs its substeps on its own until its loss clock runs out, and
// the losses fire in the order the substep loop fires them — by
// substep, and within a substep by flow — so the random source is drawn
// exactly as it would be. The path's state is then what the substep
// loop would have left: the queue still empty, no congestion, and the
// flows' rates of the last substep.
func (p *Path) calmStep(n int, dt float64) {
	rtt := p.RTT()
	invRTT := 1 / rtt
	// kPath as step computes it, with deliverFrac 1.
	c := calm{rtt: rtt, invRTT: invRTT, dt: dt, kPath: dt * p.cfg.RandomLoss * invRTT / p.cfg.MSS}
	p.held = slices.Grow(p.held[:0], len(p.flows))
	for _, f := range p.flows {
		h := held{f: f, t: p.now}
		if h.run(&c, n); h.i < n {
			p.held = append(p.held, h)
		}
	}
	// p.held stays in flow order, so the first of its earliest
	// substep is the next loss to fire.
	for len(p.held) > 0 {
		j := 0
		for i := range p.held {
			if p.held[i].i < p.held[j].i {
				j = i
			}
		}
		h := &p.held[j]
		h.f.lose(h.hz, h.k, 0, rtt, h.t, dt)
		if !h.f.still() {
			h.f.walk(rtt, h.t, h.t+dt)
		}
		h.i, h.t = h.i+1, h.t+dt
		if h.run(&c, n); h.i == n {
			p.held = slices.Delete(p.held, j, j+1)
		}
	}
	total := 0.0
	for _, f := range p.flows {
		total += f.rate
	}
	p.lastTotal = total
	p.lastCongested = false
	for i := 0; i < n; i++ {
		p.now += dt // one substep at a time, as the substep loop rounds it
	}
}

// run takes h's flow through the substeps of a calm Step of n, from h.i
// on, until its loss clock runs out in one (h.i < n) or the Step ends
// (h.i == n).
func (h *held) run(c *calm, n int) {
	f := h.f
	// The RTT is the same in every substep of a calm Step, and the first
	// stream's extremes are every stream's (see step).
	f.strs[0].tcp.ObserveRTT(c.rtt)
	for ; h.i < n; h.i, h.t = h.i+1, h.t+c.dt {
		// step's offer, delivery and hazard at deliverFrac 1 and h_c 0.
		f.offer(c.invRTT)
		k := f.scaled(c.kPath)
		hz := f.hazard(k, 0)
		f.delivered += f.rate * c.dt
		if f.still() {
			// Every substep up to the flow's next loss is this one
			// again, and only its bytes and its clock move.
			if h.coast(c.dt, n, hz) {
				return
			}
		} else if !f.runsOut(hz) {
			f.walk(c.rtt, h.t, h.t+c.dt)
			continue
		}
		h.k, h.hz = k, hz
		return
	}
}

// coast runs a still flow, delivered in its substep h.i, on through the
// substeps of dt of a calm Step of n until its loss clock runs out at a
// hazard of hz a substep. It reports whether the Step ended first.
func (h *held) coast(dt float64, n int, hz float64) (ended bool) {
	f := h.f
	i, t, clock, delivered := h.i, h.t, f.clock, f.delivered
	for {
		if hz > 0 {
			if !(clock > hz) {
				break
			}
			clock -= hz
		}
		if i++; i == n {
			ended = true
			break
		}
		t += dt
		delivered += f.rate * dt
	}
	h.i, h.t, f.clock, f.delivered = i, t, clock, delivered
	return ended
}

// runsOut runs the loss clock down by a substep's hazard hz, and
// reports whether the clock ran out in the substep, which is a loss to
// fire. Most substeps end before it runs out.
func (f *Flow) runsOut(hz float64) bool {
	if hz > 0 && f.clock > hz {
		f.clock -= hz
		return false
	}
	return hz > 0
}

// still reports whether the flow has every stream at the cap and none
// cooling down: then a substep leaves its windows and sums as they are.
func (f *Flow) still() bool {
	n := len(f.strs)
	return f.full == n && f.nActive == n
}

// walk is what is left of the substep [t, tNext) per stream of a flow
// that is not still: a window update when a round trip ends, and
// rejoining the hazard when a cool-down does. A window at the cap stays
// there until its next loss, and the loss restarts its round trip, so a
// stream at the cap has nothing to update and a still flow nothing at
// all. Both loop orders call it.
func (f *Flow) walk(rtt, t, tNext float64) {
	tCool, tNextCool := t+coolEps, tNext+coolEps
	due := tNext - rtt // a round trip begun by then ends in this substep
	maxCwnd := f.path.cfg.MaxCwnd
	alg, sum, active, nActive, full := f.alg, f.cwnd, f.active, f.nActive, f.full
	for i := range f.strs {
		s := &f.strs[i]
		if s.rttFrom <= due && s.tcp.Cwnd != maxCwnd {
			w := s.tcp.Cwnd
			s.tcp.SinceLoss = tNext - s.lossAt
			for s.rttFrom <= due {
				alg.OnRTT(&s.tcp, rtt)
				s.rttFrom += rtt
			}
			d := s.tcp.Cwnd - w
			sum += d
			if s.coolUntil <= tCool {
				active += d
			}
			if s.tcp.Cwnd == maxCwnd {
				full++
			}
		}
		if s.coolUntil > tCool && s.coolUntil <= tNextCool {
			active += s.tcp.Cwnd
			nActive++
		}
	}
	f.cwnd, f.active, f.nActive, f.full = sum, active, nActive, full
}

// offer sets the flow's offered rate, its windows over the RTT, and
// returns its rate capped, which it stashes in rate.
func (f *Flow) offer(invRTT float64) float64 {
	f.offered = f.cwnd * invRTT
	capped := f.offered
	switch {
	case f.cap < 0:
		capped = 0
	case f.cap > 0 && capped > f.cap:
		capped = f.cap
	}
	f.rate = capped
	return capped
}

// scaled returns the path's random loss hazard per byte of window,
// kPath, scaled by the share of its offered rate the flow's cap lets
// through. It reads the capped rate offer stashed.
func (f *Flow) scaled(kPath float64) float64 {
	if f.rate != f.offered {
		return kPath * (f.rate / f.offered)
	}
	return kPath
}

// hazard is the flow's loss hazard in a substep: the sum over its
// streams not cooling down of k*cwnd + hc.
func (f *Flow) hazard(k, hc float64) float64 { return k*f.active + hc*float64(f.nActive) }

// lose fires the flow's loss clock in the substep [t, t+dt), whose
// hazard hz the clock has not outlasted. Each firing charges the
// fraction of the substep the clock took, picks a stream not cooling
// down in proportion to its hazard k*cwnd + hc, cuts its window, takes
// it out of the hazard, and re-arms the clock against only what is left
// of the substep at the reduced hazard. That bookkeeping is what makes
// each stream lose independently with probability 1-exp(-k*cwnd - hc).
func (f *Flow) lose(hz, k, hc, rtt, t, dt float64) {
	rng := f.path.rng
	tCool := t + coolEps
	rem := 1.0 // fraction of the substep not yet charged
	for {
		rem -= f.clock / hz
		u := sim.Unit(rng.Uint64()) * hz
		var s *stream
		for i := range f.strs {
			if f.strs[i].coolUntil > tCool {
				continue
			}
			s = &f.strs[i]
			if u -= k*s.tcp.Cwnd + hc; u < 0 {
				break
			}
		}
		w, maxCwnd := s.tcp.Cwnd, f.path.cfg.MaxCwnd
		f.active -= w
		f.nActive--
		if w == maxCwnd {
			f.full--
		}
		s.tcp.MinRTT, s.tcp.MaxRTT = f.strs[0].tcp.MinRTT, f.strs[0].tcp.MaxRTT
		f.alg.OnLoss(&s.tcp)
		f.cwnd += s.tcp.Cwnd - w
		if s.tcp.Cwnd == maxCwnd { // a cut can land on a small cap
			f.full++
		}
		// TCP reacts at most once per RTT; when the step is coarser than
		// the RTT, at most once per two steps so short-RTT paths are not
		// cut on every step.
		s.coolUntil = t + math.Max(rtt, 2*dt)
		s.lossAt = t + dt
		s.rttFrom = s.lossAt

		f.clock = rng.ExpFloat64()
		if f.nActive == 0 {
			f.active = 0
			return
		}
		hz = f.hazard(k, hc)
		if left := hz * rem; f.clock > left {
			f.clock -= left
			return
		}
	}
}
