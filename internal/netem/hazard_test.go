package netem

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"

	"dstune/internal/sim"
	"dstune/internal/tcpmodel"
)

// bernoulli returns a stepper that is Path.Step with the loss drawn the
// plain way: each substep, every stream that is not cooling down flips
// its own coin and loses with probability 1-exp(-h), h = packets
// delivered × RandomLoss + -log(1-pCong). It is the reference
// TestStepMatchesBernoulli holds the loss clock to in distribution. It
// keeps its state the plain way too — offered rates summed stream by
// stream, SinceLoss and the RTT extremes advanced on every stream and
// each stream's RTT timer accumulated, every substep — so it shares none
// of Step's bookkeeping. It leaves the flows' sums and clocks alone, so a
// path must be driven by one of Step and a bernoulli stepper only.
func bernoulli() func(p *Path, dt float64) {
	timers := map[*stream]float64{} // time toward each stream's next window update
	return func(p *Path, dt float64) {
		if dt <= 0 {
			return
		}
		n, h := p.substeps(dt)
		for i := 0; i < n; i++ {
			bernoulliSubstep(p, h, timers)
		}
	}
}

// bernoulliSubstep is the reference's one substep of dt seconds.
func bernoulliSubstep(p *Path, dt float64, timers map[*stream]float64) {
	rtt := p.RTT()

	total := 0.0
	for _, f := range p.flows {
		off := 0.0
		for i := range f.strs {
			off += f.strs[i].tcp.Cwnd / rtt
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

	pCong := 0.0
	if congested && total > 0 {
		if shed := total - shedTarget*p.cfg.Capacity; shed > 0 {
			pCong = math.Min(shed/(0.3*total), 0.9)
		}
	}

	for _, f := range p.flows {
		scale := 1.0
		if f.offered > 0 {
			scale = f.rate / f.offered
		}
		flowRate := 0.0
		for i := range f.strs {
			s := &f.strs[i]
			if _, ok := timers[s]; !ok {
				timers[s] = p.now - s.rttFrom // a new stream's jittered start
			}
			rate := s.tcp.Cwnd / rtt * scale * deliverFrac
			flowRate += rate
			f.delivered += rate * dt

			s.tcp.SinceLoss += dt
			s.tcp.ObserveRTT(rtt)

			h := rate*dt/tcpmodel.DefaultMSS*p.cfg.RandomLoss - math.Log1p(-pCong)
			if s.coolUntil <= p.now+coolEps && p.rng.Bernoulli(-math.Expm1(-h)) {
				f.alg.OnLoss(&s.tcp)
				s.coolUntil = p.now + math.Max(rtt, 2*dt)
				timers[s] = 0
				continue
			}
			timers[s] += dt
			for timers[s] >= rtt {
				f.alg.OnRTT(&s.tcp, rtt)
				timers[s] -= rtt
			}
		}
		f.rate = flowRate
	}
	p.now += dt
}

// equivSeeds is how many seeds an equivalence run takes — each side of
// TestStepMatchesBernoulli, each case of a lockstep test:
// NETEM_EQUIV_SEEDS when set (CI's long form runs 1000), and otherwise
// def, or short under the race detector. The runs start no goroutine, so
// -race repeats what the plain run checks; a lockstep test passes it
// short, a distribution test, whose power is its seeds, def.
func equivSeeds(def, short int) int {
	if s := os.Getenv("NETEM_EQUIV_SEEDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 1 {
			return n
		}
	}
	if raceEnabled {
		return short
	}
	return def
}

// equivCase is one path of the distribution test and the regime it must
// reach.
type equivCase struct {
	name      string
	cfg       Config
	congested bool // buffer full on some steps, or on none
}

var (
	equivAlgs = []tcpmodel.Algorithm{tcpmodel.NewReno(), tcpmodel.NewCUBIC(), tcpmodel.NewHTCP(), tcpmodel.NewScalable()}
	equivDTs  = []float64{0.1, 0.05, 0.013, 0.0004}

	equivCases = []equivCase{
		{"lossy, clear", Config{Capacity: 5e9, BaseRTT: 0.012, RandomLoss: 5e-6, MaxCwnd: 4 << 20}, false},
		{"lossless, buffer full", Config{Capacity: 1.25e8, BaseRTT: 0.03, MaxCwnd: 8 << 20}, true},
		{"lossy, buffer full", Config{Capacity: 1.25e8, BaseRTT: 0.005, RandomLoss: 1e-4}, true},
	}
)

// equivRun is what one seeded run of a case measured.
type equivRun struct {
	slotLoss  [8]float64         // losses of the i-th stream of every flow, summed
	algLoss   map[string]float64 // losses per CC algorithm
	algBytes  map[string]float64 // bytes delivered per CC algorithm
	congested int                // steps that ended with the buffer full
	clear     int                // steps that did not
	lost      map[string]bool    // CC algorithms some stream of which lost
}

// runEquiv drives one path of tc, seeded by seed, through a script of
// steps, flow arrivals and departures and cap changes that depends only
// on the case (so both steppers see the same flows at the same steps),
// and sums what every flow it created lost and delivered.
func runEquiv(tc equivCase, ci int, seed uint64, step func(*Path, float64), steps int) equivRun {
	r := equivRun{algLoss: map[string]float64{}, algBytes: map[string]float64{}, lost: map[string]bool{}}
	choose := sim.NewRNG(uint64(100 + ci))
	p := New(tc.cfg, sim.NewRNG(seed))
	var all []*Flow
	for i := 0; i < steps; i++ {
		if f := mutatePath(choose, p); f != nil {
			all = append(all, f)
		}
		step(p, equivDTs[choose.IntN(len(equivDTs))])
		if bufferFull(p) {
			r.congested++
		} else {
			r.clear++
		}
	}
	for _, f := range all {
		name := fmt.Sprintf("%T", f.alg)
		r.algBytes[name] += f.Delivered()
		for i := range f.strs {
			l := float64(f.strs[i].tcp.Losses)
			r.slotLoss[i] += l
			r.algLoss[name] += l
			if l > 0 {
				r.lost[name] = true
			}
		}
	}
	return r
}

// mutatePath applies one random change, drawn from choose, to p: attach
// a flow (returned), remove one, or set a positive, zero or negative cap
// on one. The draws depend only on choose and the number of flows.
func mutatePath(choose *sim.RNG, p *Path) *Flow {
	n := len(p.flows)
	switch r := choose.Float64(); {
	case n == 0 || r < 0.04 && n < 6:
		streams, alg := 1+choose.IntN(8), equivAlgs[choose.IntN(len(equivAlgs))]
		return p.NewFlow(streams, alg)
	case r < 0.07:
		p.flows[choose.IntN(n)].Remove()
	case r < 0.15:
		i := choose.IntN(n)
		c := 0.0
		switch choose.IntN(3) {
		case 0:
			c = choose.Float64() * p.cfg.Capacity / 2
		case 1:
			c = -1
		}
		p.flows[i].SetCap(c)
	}
	return nil
}

// moments accumulates a sample's mean and standard error.
type moments struct{ n, sum, sq float64 }

func (m *moments) add(x float64) { m.n++; m.sum += x; m.sq += x * x }
func (m moments) mean() float64  { return m.sum / m.n }

// se2 is the squared standard error of the mean.
func (m moments) se2() float64 {
	v := (m.sq - m.sum*m.sum/m.n) / (m.n - 1)
	return math.Max(v, 0) / m.n
}

// TestStepMatchesBernoulli holds the loss clock to the per-stream coin
// it replaced: over a fixed set of seeds, Path.Step and bernoulli
// run the same scripted paths — all four CC algorithms, a clear path and
// two that fill the buffer, random loss on and off, caps positive, zero
// and negative, flows arriving and leaving — and the mean losses of each
// stream slot and of each algorithm, and the mean bytes each algorithm
// delivers, must agree within three combined standard errors. The seeds
// are fixed, so the test cannot flake; NETEM_EQUIV_SEEDS runs more.
func TestStepMatchesBernoulli(t *testing.T) {
	seeds := equivSeeds(100, 100)
	const steps = 600
	for ci, tc := range equivCases {
		var clock, coin []equivRun
		for s := 0; s < seeds; s++ {
			clock = append(clock, runEquiv(tc, ci, uint64(s), (*Path).Step, steps))
			coin = append(coin, runEquiv(tc, ci, uint64(s), bernoulli(), steps))
		}
		for _, r := range clock {
			if tc.congested && r.congested == 0 {
				t.Errorf("%s: buffer never filled in %d steps", tc.name, steps)
			}
			if !tc.congested && r.congested > 0 {
				t.Errorf("%s: buffer filled on %d of %d steps", tc.name, r.congested, steps)
			}
			if r.clear == 0 {
				t.Errorf("%s: buffer full on every step", tc.name)
			}
		}
		for _, a := range equivAlgs {
			if !clock[0].lost[fmt.Sprintf("%T", a)] {
				t.Errorf("%s: no %T stream ever lost a packet", tc.name, a)
			}
		}
		worst, worstWhat := 0.0, ""
		metric := func(what string, of func(equivRun) float64) {
			var a, b moments
			for i := range clock {
				a.add(of(clock[i]))
				b.add(of(coin[i]))
			}
			se := math.Sqrt(a.se2() + b.se2())
			d := math.Abs(a.mean() - b.mean())
			if d > 3*se {
				t.Errorf("%s: %s: clock %.6g, coin %.6g, %.2f standard errors apart (se %.3g)",
					tc.name, what, a.mean(), b.mean(), d/se, se)
			}
			if se > 0 && d/se > worst {
				worst, worstWhat = d/se, what
			}
		}
		for i := 0; i < 8; i++ {
			metric(fmt.Sprintf("losses of stream %d", i), func(r equivRun) float64 { return r.slotLoss[i] })
		}
		for _, a := range equivAlgs {
			name := fmt.Sprintf("%T", a)
			metric(name+" losses", func(r equivRun) float64 { return r.algLoss[name] })
			metric(name+" bytes", func(r equivRun) float64 { return r.algBytes[name] })
		}
		t.Logf("%s: %d seeds a side, widest gap %.2f standard errors (%s)", tc.name, seeds, worst, worstWhat)
	}
}

// TestLossClockFiresAtHazard drives one flow's clock through 10⁶
// substeps of a constant hazard — every stream's window and cool-down
// restored after each, two of the eight cooling down throughout — and
// requires each stream to lose in 1-exp(-h_i) of them (never, for the
// cooling two) and the flow in 1-exp(-H), within three standard
// deviations: once where losses are rare, once under a full buffer's
// pCong = 0.9, where most substeps fire several times and only charging
// the remainder of the substep after each firing keeps the count right.
func TestLossClockFiresAtHazard(t *testing.T) {
	const substeps = 1_000_000
	for _, tc := range []struct {
		name  string
		k     float64 // random-loss hazard per byte of window
		pCong float64
	}{
		{"rare", 2e-7, 0.002},
		{"full buffer", 2e-6, 0.9},
	} {
		p := New(Config{Capacity: 1e9, BaseRTT: 0.01, RandomLoss: 1e-5}, sim.NewRNG(31))
		f := p.NewFlow(8, tcpmodel.NewReno())
		hc := -math.Log1p(-tc.pCong)
		cwnd, coolUntil := make([]float64, len(f.strs)), make([]float64, len(f.strs))
		for i := range cwnd {
			cwnd[i] = float64((i + 1) << 14)
			if i%4 == 3 {
				coolUntil[i] = 1 // past every substep's start
			}
		}
		fires := make([]int, len(f.strs))
		anyFire := 0
		for j := 0; j < substeps; j++ {
			for i := range f.strs {
				s := &f.strs[i]
				s.tcp.Cwnd, s.coolUntil, s.tcp.Losses = cwnd[i], coolUntil[i], 0
			}
			f.resum()
			hz := f.hazard(tc.k, hc)
			if f.clock > hz {
				f.clock -= hz
				continue
			}
			f.lose(hz, tc.k, hc, 0.01, p.now, 0.005)
			anyFire++
			for i := range f.strs {
				fires[i] += int(f.strs[i].tcp.Losses)
			}
		}
		check := func(what string, got int, h float64) {
			want := -math.Expm1(-h)
			sd := math.Sqrt(want * (1 - want) / substeps)
			if d := math.Abs(float64(got)/substeps - want); d > 3*sd {
				t.Errorf("%s: %s lost in %.6f of substeps, want 1-exp(-%.4g) = %.6f (%.1f sd off)",
					tc.name, what, float64(got)/substeps, h, want, d/sd)
			}
		}
		total := 0.0
		for i, c := range cwnd {
			h := 0.0
			if coolUntil[i] == 0 {
				h = tc.k*c + hc
			}
			total += h
			check(fmt.Sprintf("stream %d", i), fires[i], h)
		}
		check("the flow", anyFire, total)
	}
}

// TestFlowSumsExact holds the sums a Step leaves — kept by delta in the
// substep loop, and from one closed form in a calm Step — to a fresh
// recompute from the streams after every Step of a seeded run of 10⁵
// substeps, each growing window moved to the Step's end as a substep
// loop would take it up: the stream counts not cooling down and at the
// cap exactly, the window sums within 1e-9.
func TestFlowSumsExact(t *testing.T) {
	for ci, tc := range equivCases {
		choose := sim.NewRNG(uint64(300 + ci))
		p := New(tc.cfg, sim.NewRNG(uint64(ci)))
		substeps, atCap := 0, false
		for step := 0; substeps < 100_000; step++ {
			mutatePath(choose, p)
			dt := equivDTs[choose.IntN(len(equivDTs))]
			n, _ := p.substeps(dt)
			substeps += n
			p.Step(dt)
			for i, f := range p.flows {
				if f.behind {
					f.rouse() // a sleeper's sums are set when they are read
				}
				cwnd, active, n, full := f.cwnd, f.active, f.nActive, f.full
				if f.laws {
					f.sync(p.now)
				}
				f.resum()
				if n != f.nActive || math.Abs(cwnd-f.cwnd) > 1e-9*f.cwnd || math.Abs(active-f.active) > 1e-9*f.cwnd {
					t.Fatalf("%s: step %d flow %d: kept Σcwnd %v, active %v over %d streams; recomputed %v, %v over %d",
						tc.name, step, i, cwnd, active, n, f.cwnd, f.active, f.nActive)
				}
				if full != f.full {
					t.Fatalf("%s: step %d flow %d: kept %d streams at the cap, recomputed %d", tc.name, step, i, full, f.full)
				}
				atCap = atCap || full > 0
			}
		}
		if atCap != (tc.cfg.MaxCwnd > 0) {
			t.Errorf("%s: some stream reached the cap: %v, want %v", tc.name, atCap, tc.cfg.MaxCwnd > 0)
		}
	}
}

// TestRemoveClearsTail checks that removing a flow, first or last, leaves
// no pointer to it in the path's backing array.
func TestRemoveClearsTail(t *testing.T) {
	p := New(testConfig(), sim.NewRNG(3))
	var fl []*Flow
	for i := 0; i < 5; i++ {
		fl = append(fl, p.NewFlow(2, tcpmodel.NewHTCP()))
	}
	fl[4].Remove()
	fl[0].Remove()
	fl[2].Remove()
	if len(p.flows) != 2 {
		t.Fatalf("%d flows, want 2", len(p.flows))
	}
	for i, f := range p.flows[len(p.flows):cap(p.flows)] {
		if f != nil {
			t.Errorf("slot %d past the end still holds a flow", len(p.flows)+i)
		}
	}
}
