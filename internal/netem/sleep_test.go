package netem

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"dstune/internal/sim"
	"dstune/internal/tcpmodel"
)

// awakeStep is Path.Step as it was before a flow pinned at its cap slept:
// every Step sums every flow's bound on its rate (awakeBegin), and a calm
// Step visits every flow (awakeCalm), a pinned one settled by
// awakeSettle. A Step that is not calm is Step's own. TestSleepIsExact
// holds Step to it bit for bit.
func awakeStep(p *Path, dt float64) {
	if dt <= 0 {
		return
	}
	if !awakeBegin(p) {
		p.Step(dt)
		return
	}
	_, h := p.substeps(dt)
	rtt := p.RTT()
	end := stepEnd(p, dt)
	c := calm{rtt: rtt, invRTT: 1 / rtt, cool: math.Max(rtt, 2*h), kRate: p.cfg.RandomLoss / (rtt * tcpmodel.DefaultMSS), end: end}
	c.lead = max(c.cool-rtt/2-h, 0)
	for _, f := range p.flows {
		awakeCalm(f, &c, p.now)
	}
	p.now = end
}

// awakeBegin is begin summing every flow's bound, in flow order, on
// every Step.
func awakeBegin(p *Path) bool {
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

// awakeCalm is Flow.calm with awakeSettle.
func awakeCalm(f *Flow, c *calm, t float64) {
	if !f.laws {
		f.strs[0].tcp.ObserveRTT(c.rtt)
		f.derive(c, t)
	} else if t-f.at > rebaseAfter {
		f.rebase(t)
	}
	wt := f.cwnd
	for !awakeSettle(f, c, t, wt) {
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

// awakeSettle is settle with its own copy of the test of the loss clock,
// so that a change to the one settle and a sleeper's replay share shows
// against it.
func awakeSettle(f *Flow, c *calm, t, wt float64) bool {
	if !(f.cap > 0 && wt*c.invRTT > f.cap && f.nCool == 0 && f.next >= c.end) {
		return false
	}
	ya, yb := t-f.at, c.end-f.at
	k := c.kRate * c.rtt * f.cap
	h := k * (yb - ya)
	if h > 0 && !(f.clock > h) {
		return false
	}
	f.clock -= h
	f.delivered += f.cap * (yb - ya)
	return true
}

// stepHazard returns the hazard a pinned flow's loss clock must outlast
// in p's coming calm Step of dt, as settle computes it from the origin
// of its closed forms after the Step's rebase.
func stepHazard(p *Path, f *Flow, dt float64) float64 {
	t, end := p.now, stepEnd(p, dt)
	at := f.at
	if t-at > rebaseAfter {
		at = t
	}
	rtt := p.RTT()
	k := p.cfg.RandomLoss / (rtt * tcpmodel.DefaultMSS) * rtt * f.cap
	return k * ((end - at) - (t - at))
}

// sleepCounts counts what TestSleepIsExact must reach: a sleeper woken
// by a stream's event inside the Step, by its loss clock running out, by
// a loss clock equal to the Step's hazard exactly, by a cap raised past
// its windows, and by a Step that is not calm; a sleeper given a cap it
// stays pinned at, a sleeper removed, and a sleeper whose closed forms'
// origin moved while it slept.
type sleepCounts struct {
	event, clock, tie, capWake, busy, capStay, removed, rebased int
}

// sleepMutate applies random changes, drawn from choose, to p before a
// Step of dt, and counts the ones to a sleeper in sc: caps moved past
// or below a flow's windows, unset or blocked; a loss clock set to the
// coming Step's hazard exactly, or nearly run out; a stream's event
// moved to the Step's end; a flow attached, uncapped or at a cap, or
// removed; and now and then a queue, so that the Step is not calm. The
// draws depend only on choose and p's shape, which two paths in lockstep
// share.
func sleepMutate(choose *sim.RNG, p *Path, dt float64, sc *sleepCounts) {
	n := len(p.flows)
	if n == 0 {
		return
	}
	f := p.flows[choose.IntN(n)]
	asleep, r := f.asleep, choose.Float64()
	switch {
	case r < 0.12:
		scale := []float64{0.5, 0.97, 0.999, 1.001, 1.03, 2}[choose.IntN(6)]
		f.SetCap(max(f.OfferedRate(), 1e4) * scale)
	case r < 0.14:
		f.SetCap([]float64{0, -1}[choose.IntN(2)])
	case r < 0.22:
		if f.cap > 0 {
			if h := stepHazard(p, f, dt); h > 0 {
				f.clock = h
				if asleep {
					sc.tie++
				}
			}
		}
	case r < 0.25:
		f.clock = choose.Float64() * 1e-4
	case r < 0.45:
		eventAtEnd(f, stepEnd(p, dt))
	case r < 0.47 && n < 24:
		g := p.NewFlow(1+choose.IntN(4), f.alg)
		if choose.IntN(2) == 0 {
			g.SetCap(f.cap)
		}
	case r < 0.49 && n > 2:
		f.Remove()
		if asleep {
			sc.removed++
		}
	case r < 0.5:
		p.queue = p.buffer / 2
	}
	if asleep && !f.removed {
		switch {
		case !f.asleep:
			sc.capWake++
		case r < 0.12:
			sc.capStay++
		}
	}
}

// sameSleepState reports the first difference sameState finds between a
// and b, or in a flow's cap, the origin of its closed forms or their
// sum, with each sleeper's sums set as they are when read.
func sameSleepState(a, b *Path) error {
	if err := sameState(a, b); err != nil {
		return err
	}
	for i, fa := range a.flows {
		fb := b.flows[i]
		if fa.behind {
			fa.rouse()
		}
		same := func(what string, x, y float64) error {
			if math.Float64bits(x) != math.Float64bits(y) {
				return fmt.Errorf("flow %d: %s %v, reference %v", i, what, x, y)
			}
			return nil
		}
		errs := []error{same("cap", fa.cap, fb.cap), same("cwnd", fa.cwnd, fb.cwnd), same("next event", fa.next, fb.next)}
		if fa.laws != fb.laws {
			errs = append(errs, fmt.Errorf("flow %d: closed forms current %v, reference %v", i, fa.laws, fb.laws))
		} else if fa.laws {
			errs = append(errs, same("origin", fa.at, fb.at))
			for j := range fa.sum.p {
				errs = append(errs, same(fmt.Sprintf("p[%d]", j), fa.sum.p[j], fb.sum.p[j]))
			}
			for j := range fa.sum.e {
				errs = append(errs, same(fmt.Sprintf("e[%d]", j), fa.sum.e[j], fb.sum.e[j]))
			}
		}
		if err := errors.Join(errs...); err != nil {
			return err
		}
	}
	return nil
}

// TestSleepIsExact holds a Step whose pinned flows sleep to awakeStep,
// in which every flow is visited every Step, bit for bit: it steps two
// identically seeded paths side by side for each of the four CC laws,
// over the shapes of TestPinnedSettleIsExact, while sleepMutate moves
// caps, loss clocks and events and attaches and removes flows. After
// every Step the two must agree as sameSleepState says, and over all
// Steps every case sleepCounts names must have been reached.
// NETEM_EQUIV_SEEDS runs more seeds.
func TestSleepIsExact(t *testing.T) {
	seeds := equivSeeds(16, 2)
	var sc sleepCounts
	for ci, sh := range pinShapes {
		for ai, alg := range equivAlgs {
			for seed := 0; seed < seeds; seed++ {
				where := fmt.Sprintf("%s, %T, seed %d", sh.name, alg, seed)
				a, b := New(sh.cfg, sim.NewRNG(uint64(seed))), New(sh.cfg, sim.NewRNG(uint64(seed)))
				if !sh.stagger {
					for i := range sh.flows {
						sh.attach(a, i, alg)
						sh.attach(b, i, alg)
					}
				}
				chooseA, chooseB := sim.NewRNG(uint64(5600+10*ci+ai)), sim.NewRNG(uint64(5600+10*ci+ai))
				var ignored sleepCounts
				for step := 0; step < 2*sh.steps; step++ {
					if sh.stagger && step < len(sh.flows) {
						sh.attach(a, step, alg)
						sh.attach(b, step, alg)
					}
					dt := equivDTs[chooseA.IntN(len(equivDTs)-1)] // not the shortest: sleeps must span seconds
					chooseB.IntN(len(equivDTs) - 1)
					sleepMutate(chooseA, a, dt, &sc)
					sleepMutate(chooseB, b, dt, &ignored)
					sc.count(a, dt)
					a.Step(dt)
					awakeStep(b, dt)
					if err := sameSleepState(a, b); err != nil {
						t.Fatalf("%s: step %d: %v", where, step, err)
					}
				}
			}
		}
	}
	t.Logf("%+v", sc)
	for _, c := range []struct {
		what string
		n    int
	}{
		{"sleepers woken by an event", sc.event}, {"sleepers woken by their loss clock", sc.clock},
		{"sleepers whose loss clock equals the Step's hazard", sc.tie}, {"sleepers woken by their cap", sc.capWake},
		{"sleepers woken by a Step that is not calm", sc.busy}, {"sleepers given a cap they stay pinned at", sc.capStay},
		{"sleepers removed", sc.removed}, {"sleepers rebased", sc.rebased},
	} {
		if c.n == 0 {
			t.Errorf("no %s", c.what)
		}
	}
}

// count counts the sleepers of p that its coming Step of dt wakes, by
// what wakes them, and the ones whose closed forms' origin it moves.
func (sc *sleepCounts) count(p *Path, dt float64) {
	calm := p.begin()
	end := stepEnd(p, dt)
	for _, f := range p.flows {
		switch {
		case !f.asleep:
		case !calm:
			sc.busy++
		case !(f.next >= end):
			sc.event++
		case !f.outlasts(stepHazard(p, f, dt)):
			sc.clock++
		case p.now-f.at > rebaseAfter:
			sc.rebased++
		}
	}
}
