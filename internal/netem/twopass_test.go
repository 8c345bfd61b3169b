package netem

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"dstune/internal/sim"
	"dstune/internal/tcpmodel"
)

// twoPassStep is Path.Step as it was before the substep loop was fused
// into one walk of the streams: phase 1 computes every stream's rate,
// phase 3 computes it again. It is kept line for line (comments aside)
// as the reference TestStepMatchesTwoPass holds the product to. It
// writes each stream's delivered rate into stream.rate, which the
// product reads as an offered rate; a path must be driven by one of the
// two only.
func twoPassStep(p *Path, dt float64) {
	if dt <= 0 {
		return
	}
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
	h := dt / float64(n)
	for i := 0; i < n; i++ {
		twoPassSubstep(p, h)
	}
}

// twoPassSubstep is the reference's one substep of h seconds.
func twoPassSubstep(p *Path, dt float64) {
	rtt := p.RTT()

	// Phase 1: offered rates, flow caps.
	total := 0.0
	for _, f := range p.flows {
		off := 0.0
		for i := range f.strs {
			off += f.strs[i].tcp.Rate(rtt)
		}
		f.offered = off
		capped := off
		switch {
		case f.cap < 0:
			capped = 0
		case f.cap > 0 && capped > f.cap:
			capped = f.cap
		}
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

	// Phase 3: delivery, losses, and window evolution.
	delivered := 0.0
	for _, f := range p.flows {
		scale := 1.0
		if f.offered > 0 {
			scale = f.rate / f.offered
		}
		flowRate := 0.0
		for i := range f.strs {
			s := &f.strs[i]
			rate := s.tcp.Rate(rtt) * scale * deliverFrac
			s.rate = rate
			flowRate += rate
			f.delivered += rate * dt

			s.tcp.SinceLoss += dt
			s.tcp.ObserveRTT(rtt)
			s.cooldown -= dt

			pkts := rate * dt / p.cfg.MSS
			pLoss := pCongStep
			if p.cfg.RandomLoss > 0 && pkts > 0 {
				pRand := pkts * p.cfg.RandomLoss
				if pRand > 0.5 {
					pRand = 0.5
				}
				pLoss = 1 - (1-pLoss)*(1-pRand)
			}

			if pLoss > 0 && s.cooldown <= 0 && p.rng.Bernoulli(pLoss) {
				f.alg.OnLoss(&s.tcp)
				s.cooldown = math.Max(rtt, 2*dt)
				s.rttTimer = 0
				continue
			}
			s.rttTimer += dt
			for s.rttTimer >= rtt {
				f.alg.OnRTT(&s.tcp, rtt)
				s.rttTimer -= rtt
			}
		}
		f.rate = flowRate
		delivered += flowRate
	}
	p.lastTotal = delivered
}

// TestStepMatchesTwoPass drives two identically seeded paths, one with
// Path.Step and one with the two-pass reference, through the same
// seeded sequence of steps, flow arrivals and departures and cap
// changes, and requires every bit of their state to agree after every
// step: the one-walk loop is a refactoring, not a model change.
func TestStepMatchesTwoPass(t *testing.T) {
	algs := []tcpmodel.Algorithm{tcpmodel.NewReno(), tcpmodel.NewCUBIC(), tcpmodel.NewHTCP(), tcpmodel.NewScalable()}
	dts := []float64{0.1, 0.05, 0.013, 0.0004}
	cases := []struct {
		name      string
		cfg       Config
		congested bool // the regime the case must reach: buffer full, or never
	}{
		{"lossy, uncongested", Config{Capacity: 5e9, BaseRTT: 0.012, RandomLoss: 5e-6, MaxCwnd: 4 << 20}, false},
		{"lossless, buffer full", Config{Capacity: 1.25e8, BaseRTT: 0.03, MaxCwnd: 8 << 20}, true},
		{"lossy, buffer full", Config{Capacity: 1.25e8, BaseRTT: 0.005, RandomLoss: 1e-4}, true},
	}
	const steps = 4000
	for ci, tc := range cases {
		choose := sim.NewRNG(uint64(100 + ci)) // the test's own choices
		got := New(tc.cfg, sim.NewRNG(uint64(ci)))
		want := New(tc.cfg, sim.NewRNG(uint64(ci)))
		var congested, clear int
		lost := make(map[string]bool)
		for step := 0; step < steps; step++ {
			mutatePaths(choose, algs, got, want)
			dt := dts[choose.IntN(len(dts))]
			got.Step(dt)
			twoPassStep(want, dt)
			if err := diffPaths(got, want); err != nil {
				t.Fatalf("%s: step %d (dt %v): %v", tc.name, step, dt, err)
			}
			if got.Congested() {
				congested++
			} else {
				clear++
			}
			for _, f := range got.flows {
				if f.Losses() > 0 {
					lost[f.alg.Name()] = true
				}
			}
		}
		if tc.congested && congested == 0 {
			t.Errorf("%s: buffer never filled in %d steps", tc.name, steps)
		}
		if !tc.congested && congested > 0 {
			t.Errorf("%s: buffer filled on %d of %d steps", tc.name, congested, steps)
		}
		if clear == 0 {
			t.Errorf("%s: buffer full on every step", tc.name)
		}
		for _, a := range algs {
			if !lost[a.Name()] {
				t.Errorf("%s: no %s stream ever lost a packet", tc.name, a.Name())
			}
		}
	}
}

// mutatePaths applies one random change, drawn from choose, to both
// paths alike: attach a flow, remove one, or set a positive, zero or
// negative cap on one.
func mutatePaths(choose *sim.RNG, algs []tcpmodel.Algorithm, paths ...*Path) {
	n := len(paths[0].flows)
	switch r := choose.Float64(); {
	case n == 0 || r < 0.04 && n < 6:
		streams, alg := 1+choose.IntN(8), algs[choose.IntN(len(algs))]
		for _, p := range paths {
			p.NewFlow(streams, alg)
		}
	case r < 0.07:
		i := choose.IntN(n)
		for _, p := range paths {
			p.flows[i].Remove()
		}
	case r < 0.15:
		i := choose.IntN(n)
		c := 0.0
		switch choose.IntN(3) {
		case 0:
			c = choose.Float64() * paths[0].cfg.Capacity / 2
		case 1:
			c = -1
		}
		for _, p := range paths {
			p.flows[i].SetCap(c)
		}
	}
}

// diffPaths reports the first bit of state where a and b differ.
func diffPaths(a, b *Path) error {
	ne := func(x, y float64) bool { return math.Float64bits(x) != math.Float64bits(y) }
	if ne(a.queue, b.queue) || ne(a.lastTotal, b.lastTotal) || a.lastCongested != b.lastCongested {
		return fmt.Errorf("path: queue %v/%v, total %v/%v, congested %v/%v",
			a.queue, b.queue, a.lastTotal, b.lastTotal, a.lastCongested, b.lastCongested)
	}
	ra, _ := a.rng.MarshalBinary()
	rb, _ := b.rng.MarshalBinary()
	if !bytes.Equal(ra, rb) {
		return fmt.Errorf("random sources at different positions")
	}
	if len(a.flows) != len(b.flows) {
		return fmt.Errorf("%d flows vs %d", len(a.flows), len(b.flows))
	}
	for i, fa := range a.flows {
		fb := b.flows[i]
		if ne(fa.cap, fb.cap) || ne(fa.offered, fb.offered) || ne(fa.rate, fb.rate) || ne(fa.delivered, fb.delivered) {
			return fmt.Errorf("flow %d: offered %v/%v, rate %v/%v, delivered %v/%v",
				i, fa.offered, fb.offered, fa.rate, fb.rate, fa.delivered, fb.delivered)
		}
		if len(fa.strs) != len(fb.strs) {
			return fmt.Errorf("flow %d: %d streams vs %d", i, len(fa.strs), len(fb.strs))
		}
		for j := range fa.strs {
			sa, sb := &fa.strs[j], &fb.strs[j]
			ta, tb := &sa.tcp, &sb.tcp
			if ne(sa.rttTimer, sb.rttTimer) || ne(sa.cooldown, sb.cooldown) ||
				ne(ta.Cwnd, tb.Cwnd) || ne(ta.Ssthresh, tb.Ssthresh) || ne(ta.MSS, tb.MSS) ||
				ne(ta.MaxCwnd, tb.MaxCwnd) || ta.SlowStart != tb.SlowStart || ne(ta.SinceLoss, tb.SinceLoss) ||
				ne(ta.WMax, tb.WMax) || ne(ta.MinRTT, tb.MinRTT) || ne(ta.MaxRTT, tb.MaxRTT) || ta.Losses != tb.Losses {
				return fmt.Errorf("flow %d stream %d: %+v rtt timer %v cooldown %v, want %+v rtt timer %v cooldown %v",
					i, j, *ta, sa.rttTimer, sa.cooldown, *tb, sb.rttTimer, sb.cooldown)
			}
		}
	}
	return nil
}
