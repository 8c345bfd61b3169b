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
// calm: the queue stays empty, the RTT is fixed, and flows meet only
// through the random source. A calm Step has no substeps. It moves each
// stream from one of its events to the next — a loss, its window
// reaching MaxCwnd, its cool-down ending, a change of growth law such as
// leaving slow start — and in between the window is its algorithm's
// closed form (tcpmodel.Growth), the line through the middle of the
// staircase OnRTT climbs once an RTT. A flow keeps its windows' forms
// summed as one, so its delivered bytes are the integral of its rate,
// its loss clock runs out where the integral of its hazard reaches it,
// and a stream costs nothing between its events. The closed form is not
// bit-equal to the round trips; TestCalmLawMatchesReference holds the
// two to each other in distribution.
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
	lossAt    float64 // the last loss: its instant in a calm Step, the end of its substep in others (or the stream's birth)
	tcp       tcpmodel.Stream

	// In a calm Step: the stream's phase, its closed form from from while
	// it grows, and the time of its next event.
	phase      uint8
	g          tcpmodel.Growth
	from, next float64
}

// coolEps absorbs the rounding of the path clock when a cool-down ends
// on a substep boundary.
const coolEps = 1e-9

// Flow is a group of streams managed as one unit: one transfer process
// in the paper's terms (a concurrency unit running `parallelism`
// streams). The endpoint scheduler caps a flow's aggregate rate.
type Flow struct {
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

	// A calm Step's sums (see calmStep), kept by delta at its streams'
	// events: the windows as one closed form in the seconds since at,
	// the windows cooling down summed and counted, the windows at
	// MaxCwnd counted, and the earliest of the streams' next events.
	// laws is whether the streams' closed forms are current: a congested
	// Step moves windows round trip by round trip.
	laws  bool
	at    float64
	next  float64
	nCool int
	nMax  int
	cool  float64
	sum   form

	strs    []stream
	alg     tcpmodel.Algorithm
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
// A calm Step, one whose substeps could not fill the bottleneck (see
// begin), moves each flow from event to event (see calmStep); any other
// runs substep by substep, and first moves the windows a calm Step left
// in closed form to where they are.
func (p *Path) Step(dt float64) {
	if dt <= 0 {
		return
	}
	n, h := p.substeps(dt)
	if p.begin() {
		p.calmStep(n, h)
		return
	}
	for _, f := range p.flows {
		if f.laws {
			f.sync(p.now)
			f.resum()
			f.laws = false
		}
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

// begin readies the path for a Step. It recomputes the sums of every
// flow the substeps last moved — they keep them by delta, so this bounds
// their drift to one Step; a calm Step leaves a flow's sums from its
// closed form — and reports whether the Step is calm: the queue is
// empty, the path caps windows, and the flows' bounds on their rates,
// summed in flow order, come to at most the capacity. A flow's bound is
// 0 if it is blocked, its cap if it has one, and otherwise the most its
// windows can sum to in the Step over the RTT. Throughout a calm Step
// the queue then stays empty, the RTT is the same, every flow's capped
// rate is delivered in full and there is no congestion hazard, so its
// flows meet only through the random source.
func (p *Path) begin() bool {
	for _, f := range p.flows {
		if !f.laws {
			f.resum()
		}
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
// Step. A window moves only by OnRTT, its closed form and OnLoss, which
// leave it at most the larger of MaxCwnd and the MSS, so each can reach
// at most that or what it is now (NewFlow's jitter can leave it above
// MaxCwnd). A window a calm Step holds in closed form has its Cwnd from
// its last event, which is as good a bound.
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

// calm is what a calm Step holds the same throughout: the RTT, the
// cool-down a loss starts, the lead a window's growth takes when the
// cool-down ends, the random loss hazard a second per byte of an
// uncapped flow's windows, and the Step's end. The queue stays empty,
// the bottleneck delivers every offered rate in full, and there is no
// congestion hazard.
//
// A window holds its cut through its cool-down (lose's, RTT or two
// substeps) and then grows. The round trips of the substep loop climb a
// staircase whose first stair lands about an RTT and a substep after
// the loss; the line through the middle of its stairs starts half an
// RTT before that, so the closed form starts lead seconds up the line.
type calm struct {
	rtt, invRTT, cool, lead, kRate, end float64
}

// A stream's phase in a calm Step.
const (
	grows uint8 = iota // its window follows its closed form g from its from
	cools              // its window holds until its cool-down ends
	atMax              // its window holds at MaxCwnd until a loss
)

var inf = math.Inf(1)

// form is a sum of windows as a closed form of y, the seconds since its
// flow's at: a cubic, plus e[i]·exp(r[i]·y) for each of the flow's
// geometric rates (slow start's, and Scalable's own), which n[i] of its
// streams grow at.
type form struct {
	p [4]float64
	e [2]float64
	r [2]float64
	n [2]int
}

// calmStep is a calm Step of n substeps of dt, run flow by flow and, in
// each flow, from one event of its streams to the next: a loss, a window
// reaching MaxCwnd, a cool-down ending, a change of growth law. Between
// them each window is its algorithm's closed form (tcpmodel.Growth) and
// the flow keeps their sum as one: its loss clock runs down by the
// integral of its hazard, its delivered bytes grow by the integral of
// its rate, and a stream is touched only at its own events. The path's
// state is then what a Step leaves: the queue still empty, no
// congestion, and the flows' rates of the windows at the Step's end.
func (p *Path) calmStep(n int, dt float64) {
	rtt := p.RTT()
	end := p.now
	for i := 0; i < n; i++ {
		end += dt // one substep at a time, as the substep loop rounds it
	}
	// lose's cool-down, and step's kPath over a second at deliverFrac 1.
	c := calm{rtt: rtt, invRTT: 1 / rtt, cool: math.Max(rtt, 2*dt), kRate: p.cfg.RandomLoss / (rtt * p.cfg.MSS), end: end}
	c.lead = max(c.cool-rtt/2-dt, 0)
	total := 0.0
	for _, f := range p.flows {
		f.calm(&c, p.now)
		total += f.rate
	}
	p.lastTotal = total
	p.lastCongested = false
	p.now = end
}

// calm runs the flow through a calm Step from t, and leaves the sums the
// substep loop keeps, and its offered and delivered rates, at those of
// its windows at the end.
func (f *Flow) calm(c *calm, t float64) {
	if !f.laws {
		// The RTT is the same throughout every calm Step, and the first
		// stream's extremes are every stream's (see step).
		f.strs[0].tcp.ObserveRTT(c.rtt)
		f.derive(c, t)
	} else if t-f.at > rebaseAfter {
		f.rebase(t)
	}
	wt := f.cwnd // the windows summed at t: the last Step's end, or resum's
	for {
		te := min(f.next, c.end)
		if tl, lost := f.advance(c, t, te, wt); lost {
			f.loseAt(c, tl)
			t, wt = tl, f.w(tl-f.at)
			continue
		}
		if t = te; t >= c.end {
			break
		}
		f.events(c, t)
		wt = f.w(t - f.at)
	}
	if f.growing() {
		wt = f.w(c.end - f.at)
	}
	f.cwnd = wt
	f.active, f.nActive, f.full = f.cwnd-f.cool, len(f.strs)-f.nCool, f.nMax
	f.offer(c.invRTT)
}

// derive takes up the flow's streams at t, from their birth or after a
// congested Step moved them round trip by round trip: a stream cooling
// down holds its window, one at MaxCwnd stays there, and any other
// grows by its closed form from t.
func (f *Flow) derive(c *calm, t float64) {
	maxCwnd := f.path.cfg.MaxCwnd
	f.at, f.sum, f.cool, f.nCool, f.nMax, f.next = t, form{}, 0, 0, 0, inf
	for i := range f.strs {
		s := &f.strs[i]
		switch {
		case s.coolUntil > t+coolEps:
			s.phase, s.next = cools, s.coolUntil
		case s.tcp.Cwnd == maxCwnd:
			s.phase, s.next = atMax, inf
		default:
			f.grow(s, t, t, c.rtt)
		}
		f.add(s, 1)
		f.next = min(f.next, s.next)
	}
	f.laws = true
}

// rebaseAfter is how many seconds a flow's sum of windows runs from its
// at before it is re-expressed from a later one, which keeps the powers
// of y small against the windows they sum.
const rebaseAfter = 1.0

// rebase re-expresses the flow's sum of windows in the seconds since t.
func (f *Flow) rebase(t float64) {
	x := t - f.at
	f.sum.p = tcpmodel.Growth{P: f.sum.p}.Shift(x).P
	for i, e := range f.sum.e {
		if e != 0 {
			f.sum.e[i] = e * math.Exp(f.sum.r[i]*x)
		}
	}
	f.at = t
}

// sync moves every growing window of the flow to t, where the substep
// loop takes the streams up, and restarts its round trip there.
func (f *Flow) sync(t float64) {
	for i := range f.strs {
		if s := &f.strs[i]; s.phase == grows {
			x := t - s.from
			s.g.Move(&s.tcp, x)
			s.g = s.g.Shift(x)
			s.from, s.rttFrom = t, t
		}
	}
}

// grow starts s's growth from its window as it was at from, and takes
// it on to t through every change of law before then: the algorithm's
// closed form, or the cap once the window is at it.
func (f *Flow) grow(s *stream, from, t, rtt float64) {
	for {
		s.tcp.SinceLoss = from - s.lossAt
		g := f.alg.Grow(&s.tcp, rtt)
		for g.Until <= 0 && !g.AtCap { // slow start ending where it is
			g.Move(&s.tcp, 0)
			g = f.alg.Grow(&s.tcp, rtt)
		}
		if end := from + g.Until; end > t {
			s.g, s.from, s.phase, s.next = g, from, grows, end
			return
		}
		g.Move(&s.tcp, g.Until)
		if g.AtCap {
			s.phase, s.next = atMax, inf
			return
		}
		from += g.Until
	}
}

// events runs every stream whose event falls at t through it: a
// cool-down that ends starts the stream's growth, and a growth that ends
// leaves the window at the cap or takes up the algorithm's next law.
func (f *Flow) events(c *calm, t float64) {
	f.next = inf
	for i := range f.strs {
		s := &f.strs[i]
		if s.next <= t {
			f.add(s, -1)
			at := s.next
			if s.phase == grows {
				s.g.Move(&s.tcp, s.g.Until)
			}
			switch {
			case s.phase == cools:
				f.grow(s, at-c.lead, at, c.rtt)
			case s.g.AtCap:
				s.phase, s.next = atMax, inf
			default:
				f.grow(s, at, at, c.rtt)
			}
			f.add(s, 1)
		}
		f.next = min(f.next, s.next)
	}
}

// growing reports whether some window of the flow is growing, so that
// their sum is not a constant.
func (f *Flow) growing() bool { return f.nCool+f.nMax < len(f.strs) }

// advance runs the flow's delivery and loss clock from a, where its
// windows sum to wa, to b, where none of its streams has an event, and
// reports the instant its clock runs out if it does before b. Its
// windows never shrink between events, so its rate reaches its cap at
// most once in between.
func (f *Flow) advance(c *calm, a, b, wa float64) (float64, bool) {
	if f.cap < 0 || !(b > a) {
		return 0, false
	}
	ya, yb := a-f.at, b-f.at
	ycap := inf
	if f.cap > 0 {
		switch w := f.cap * c.rtt; {
		case wa*c.invRTT > f.cap:
			ycap = ya
		case f.growing() && f.w(yb)*c.invRTT > f.cap:
			ycap = solve(ya, yb, func(y float64) (float64, float64) { return f.w(y) - w, f.slope(y) })
		}
	}
	if ycap > ya {
		yz := min(ycap, yb)
		if y, lost := f.piece(c, false, ya, yz); lost {
			return f.at + y, true
		}
		ya = yz
	}
	if ya < yb {
		if y, lost := f.piece(c, true, ya, yb); lost {
			return f.at + y, true
		}
	}
	return 0, false
}

// piece runs the flow's delivery and loss clock from ya to yb, at its
// cap throughout (limited) or under it, and reports where in it the
// clock runs out, if it does.
func (f *Flow) piece(c *calm, limited bool, ya, yb float64) (float64, bool) {
	h, k := f.hazardTo(c, limited, ya, yb)
	if h > 0 && !(f.clock > h) {
		if clock := f.clock; limited && f.nCool == 0 {
			yb = ya + clock/k // a constant hazard
		} else {
			yb = solve(ya, yb, func(y float64) (float64, float64) {
				h, k := f.hazardTo(c, limited, ya, y)
				return h - clock, k
			})
		}
		f.delivered += f.bytes(c, limited, ya, yb)
		return yb, true
	}
	f.clock -= h
	f.delivered += f.bytes(c, limited, ya, yb)
	return 0, false
}

// glNode is the outer node of three-point Gauss–Legendre quadrature on
// [-1, 1], whose weights are 5/9, 8/9, 5/9.
var glNode = math.Sqrt(3.0 / 5)

// hazardTo returns the flow's loss hazard summed from ya to y, and its
// hazard a second at y, at the flow's cap (limited) or under it. Under
// it, a stream's hazard is the random loss rate times its packets,
// kRate·cwnd a second, and the integral over the windows not cooling
// down is exact. At the cap the flow's rate is its cap whatever its
// windows, and the streams not cooling down share its packets in
// proportion: kRate·RTT·cap·(1 - cool/Σcwnd) a second. That is a
// constant but while a stream cools down — an RTT or so, which bounds
// the piece — and then the quadrature is far below rounding.
func (f *Flow) hazardTo(c *calm, limited bool, ya, y float64) (h, rate float64) {
	if f.nCool == len(f.strs) {
		return 0, 0
	}
	if !limited {
		k := c.kRate
		return k * (f.wInt(y) - f.wInt(ya) - f.cool*(y-ya)), k * (f.w(y) - f.cool)
	}
	k := c.kRate * c.rtt * f.cap
	if f.nCool == 0 {
		return k * (y - ya), k
	}
	m, r := (ya+y)/2, (y-ya)/2
	q := r * (5*(1/f.w(m-r*glNode)+1/f.w(m+r*glNode)) + 8/f.w(m)) / 9
	return k * ((y - ya) - f.cool*q), k * (1 - f.cool/f.w(y))
}

// bytes returns what the flow delivers from ya to yb, at its cap
// (limited) or under it.
func (f *Flow) bytes(c *calm, limited bool, ya, yb float64) float64 {
	if limited {
		return f.cap * (yb - ya)
	}
	return (f.wInt(yb) - f.wInt(ya)) * c.invRTT
}

// loseAt fires the flow's loss clock at t: it picks a stream not cooling
// down in proportion to its hazard, k·cwnd with no congestion term, so
// in proportion to its window at t; cuts the window; holds it through a
// cool-down; and re-arms the clock.
func (f *Flow) loseAt(c *calm, t float64) {
	rng := f.path.rng
	total := 0.0
	for i := range f.strs {
		if s := &f.strs[i]; s.phase != cools {
			total += s.window(t)
		}
	}
	u := sim.Unit(rng.Uint64()) * total
	var v *stream
	for i := range f.strs {
		s := &f.strs[i]
		if s.phase == cools {
			continue
		}
		v = s
		if u -= s.window(t); u < 0 {
			break
		}
	}
	f.add(v, -1)
	if v.phase == grows {
		v.g.Move(&v.tcp, t-v.from)
	}
	v.tcp.MinRTT, v.tcp.MaxRTT = f.strs[0].tcp.MinRTT, f.strs[0].tcp.MaxRTT
	f.alg.OnLoss(&v.tcp)
	v.coolUntil, v.lossAt = t+c.cool, t
	v.rttFrom = v.coolUntil
	v.phase, v.next = cools, v.coolUntil
	f.add(v, 1)
	f.clock = rng.ExpFloat64()
	f.next = inf
	for i := range f.strs {
		f.next = min(f.next, f.strs[i].next)
	}
}

// window returns the stream's window at t in a calm Step.
func (s *stream) window(t float64) float64 {
	if s.phase != grows {
		return s.tcp.Cwnd
	}
	if x := t - s.from; x < s.g.Until {
		return s.g.At(x)
	}
	return s.g.End
}

// add adds sign times s's window, as it runs on from the flow's at, to
// the flow's closed-form sums.
func (f *Flow) add(s *stream, sign float64) {
	w := s.tcp.Cwnd
	switch s.phase {
	case grows:
		g := s.g
		if d := f.at - s.from; d != 0 {
			g = g.Shift(d)
		}
		for i, c := range g.P {
			f.sum.p[i] += sign * c
		}
		if g.E != 0 {
			i := f.slot(g.R)
			if f.sum.n[i] += int(sign); f.sum.n[i] == 0 {
				f.sum.e[i] = 0 // no rounding left to grow
			} else {
				f.sum.e[i] += sign * g.E
			}
		}
		return
	case cools:
		if f.nCool += int(sign); f.nCool == 0 {
			f.cool = 0
		} else {
			f.cool += sign * w
		}
	case atMax:
		f.nMax += int(sign)
	}
	f.sum.p[0] += sign * w
}

// slot returns the index of the geometric rate r in the flow's sum,
// taking a free one for a rate not seen yet. A calm Step's RTT is the
// path's base RTT, so a flow's rates never change: slow start's and its
// algorithm's own.
func (f *Flow) slot(r float64) int {
	for i, q := range f.sum.r {
		if q == r {
			return i
		}
	}
	for i, q := range f.sum.r {
		if q == 0 {
			f.sum.r[i] = r
			return i
		}
	}
	panic("netem: a flow's windows grow at more than two geometric rates")
}

// w returns the flow's windows summed, y seconds after its at.
func (f *Flow) w(y float64) float64 {
	p := &f.sum.p
	w := p[0] + y*(p[1]+y*(p[2]+y*p[3]))
	for i, e := range f.sum.e {
		if e != 0 {
			w += e * math.Exp(f.sum.r[i]*y)
		}
	}
	return w
}

// slope returns the rate at which the flow's windows summed grow, y
// seconds after its at.
func (f *Flow) slope(y float64) float64 {
	p := &f.sum.p
	d := p[1] + y*(2*p[2]+y*3*p[3])
	for i, e := range f.sum.e {
		if e != 0 {
			d += e * f.sum.r[i] * math.Exp(f.sum.r[i]*y)
		}
	}
	return d
}

// wInt returns the integral of the flow's windows summed from its at to
// y seconds after.
func (f *Flow) wInt(y float64) float64 {
	p := &f.sum.p
	v := y * (p[0] + y*(p[1]/2+y*(p[2]/3+y*p[3]/4)))
	for i, e := range f.sum.e {
		if e != 0 {
			v += e * math.Expm1(f.sum.r[i]*y) / f.sum.r[i]
		}
	}
	return v
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

// solve returns the root in [lo, hi] of an increasing function whose
// value and slope fn returns, fn(lo) < 0 ≤ fn(hi): Newton's method,
// falling back on bisection when a step would leave the bracket.
func solve(lo, hi float64, fn func(x float64) (v, slope float64)) float64 {
	x := lo
	v, d := fn(x)
	for i := 0; i < 100; i++ {
		nx := x - v/d
		if !(nx > lo && nx < hi) {
			nx = lo + (hi-lo)/2
		}
		if v, d = fn(nx); v < 0 {
			lo = nx
		} else {
			hi = nx
		}
		if math.Abs(nx-x) <= 1e-14*nx || hi-lo <= 1e-14*hi {
			return nx
		}
		x = nx
	}
	return hi
}
