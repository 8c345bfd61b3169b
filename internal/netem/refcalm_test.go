package netem

import "slices"

// refStep is Path.Step with the calm Step it had before calm Steps
// moved streams from event to event: the law a calm Step now follows in
// closed form, round trip by round trip, and bit-equal to the substep
// loop (TestCalmStepIsExact). TestCalmLawMatchesReference holds the
// closed form to it in distribution.
func refStep(p *Path, dt float64) {
	if dt <= 0 {
		return
	}
	n, h := p.substeps(dt)
	if p.begin() {
		refCalmStep(p, n, h)
		return
	}
	for i := 0; i < n; i++ {
		p.step(h)
	}
}

// refCalm is what every substep of a calm Step holds the same: the RTT,
// the substep's length, and the random loss hazard per byte of window
// before a flow's cap scale. The queue is empty, the bottleneck delivers
// every offered rate in full, and there is no congestion hazard.
type refCalm struct {
	rtt, invRTT, dt, kPath float64
}

// refHeld is a flow that the reference calm Step runs on its own, at its substep i,
// which starts at t. When the flow's loss clock runs out, run leaves it
// there, delivered, with the loss of hazard hz at scale k still to fire.
type refHeld struct {
	f        *Flow
	i        int
	t, k, hz float64
}

// refCalmStep is the calm Step of n substeps of dt that a calm Step was
// before it moved streams from event to event: run flow by flow, each
// flow substep by substep with every window advanced round trip by
// round trip. Each
// flow runs its substeps on its own until its loss clock runs out, and
// the losses fire in the order the substep loop fires them — by
// substep, and within a substep by flow — so the random source is drawn
// exactly as it would be. The path's state is then what the substep
// loop would have left: the queue still empty, no congestion, and the
// flows' rates of the last substep.
func refCalmStep(p *Path, n int, dt float64) {
	rtt := p.RTT()
	invRTT := 1 / rtt
	// kPath as step computes it, with deliverFrac 1.
	c := refCalm{rtt: rtt, invRTT: invRTT, dt: dt, kPath: dt * p.cfg.RandomLoss * invRTT / p.cfg.MSS}
	var held []refHeld
	for _, f := range p.flows {
		h := refHeld{f: f, t: p.now}
		if h.run(&c, n); h.i < n {
			held = append(held, h)
		}
	}
	// held stays in flow order, so the first of its earliest
	// substep is the next loss to fire.
	for len(held) > 0 {
		j := 0
		for i := range held {
			if held[i].i < held[j].i {
				j = i
			}
		}
		h := &held[j]
		h.f.lose(h.hz, h.k, 0, rtt, h.t, dt)
		if !h.f.still() {
			h.f.walk(rtt, h.t, h.t+dt)
		}
		h.i, h.t = h.i+1, h.t+dt
		if h.run(&c, n); h.i == n {
			held = slices.Delete(held, j, j+1)
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
func (h *refHeld) run(c *refCalm, n int) {
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
func (h *refHeld) coast(dt float64, n int, hz float64) (ended bool) {
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
