package netem

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"dstune/internal/sim"
	"dstune/internal/tcpmodel"
)

// walkEveryStream is Path.Step with the per-stream walk that does not
// know about the cap: every substep visits every stream of every flow
// and advances each round trip that ends, a window at MaxCwnd included.
// It shares lose and resum with Step, and keeps every sum Step keeps but
// the count of streams at the cap, which it leaves to them.
// TestCapSkipIsExact holds the substep loop to it bit for bit.
func walkEveryStream(p *Path, dt float64) {
	if dt <= 0 {
		return
	}
	n, h := p.substeps(dt)
	for _, f := range p.flows {
		f.resum()
	}
	for i := 0; i < n; i++ {
		walkEveryStreamSubstep(p, h)
	}
}

// walkEveryStreamSubstep is the reference's one substep: Path.step with
// the plain walk.
func walkEveryStreamSubstep(p *Path, dt float64) {
	rtt := p.RTT()
	invRTT := 1 / rtt

	total := 0.0
	for _, f := range p.flows {
		f.offered = f.cwnd * invRTT
		capped := f.offered
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
	p.lastCongested = congested

	pCongStep := 0.0
	if congested && total > 0 {
		if shed := total - shedTarget*p.cfg.Capacity; shed > 0 {
			pCongStep = math.Min(shed/(0.3*total), 0.9)
		}
	}
	hc := 0.0
	if pCongStep > 0 {
		hc = -math.Log1p(-pCongStep)
	}
	kPath := deliverFrac * dt * p.cfg.RandomLoss * invRTT / tcpmodel.DefaultMSS

	t := p.now
	tNext := t + dt
	tCool, tNextCool := t+coolEps, tNext+coolEps
	due := tNext - rtt
	pathRate := 0.0
	for _, f := range p.flows {
		k := kPath
		if f.rate != f.offered {
			k *= f.rate / f.offered
		}
		rate := f.rate * deliverFrac
		f.rate = rate
		f.delivered += rate * dt
		pathRate += rate
		f.strs[0].tcp.ObserveRTT(rtt)
		if hz := f.hazard(k, hc); hz > 0 {
			if f.clock > hz {
				f.clock -= hz
			} else {
				f.lose(hz, k, hc, rtt, t, dt)
			}
		}
		sum, active, nActive := f.cwnd, f.active, f.nActive
		for i := range f.strs {
			s := &f.strs[i]
			if s.rttFrom <= due {
				w := s.tcp.Cwnd
				s.tcp.SinceLoss = tNext - s.lossAt
				for s.rttFrom <= due {
					f.alg.OnRTT(&s.tcp, rtt)
					s.rttFrom += rtt
				}
				d := s.tcp.Cwnd - w
				sum += d
				if s.coolUntil <= tCool {
					active += d
				}
			}
			if s.coolUntil > tCool && s.coolUntil <= tNextCool {
				active += s.tcp.Cwnd
				nActive++
			}
		}
		f.cwnd, f.active, f.nActive = sum, active, nActive
	}
	p.lastTotal = pathRate
	p.now = tNext
}

// substepLoop is Path.Step with every Step taken substep by substep, as
// a Step that is not calm is: the loop TestCapSkipIsExact holds.
func substepLoop(p *Path, dt float64) {
	if dt <= 0 {
		return
	}
	n, h := p.substeps(dt)
	p.begin()
	for i := 0; i < n; i++ {
		p.step(h)
	}
}

// capShape is one path and population of TestCapSkipIsExact.
type capShape struct {
	name    string
	cfg     Config
	flows   []int // streams of each flow attached before the first step
	mutate  bool  // attach, remove and cap flows as runEquiv does
	steps   int
	atCap   bool // some stream must reach the cap
	skipped bool // some flow must have every stream at the cap, none cooling down
}

var (
	figUChicago = Config{Capacity: 5e9, BaseRTT: 0.012, RandomLoss: 5e-6, MaxCwnd: 4 << 20}
	figTACC     = Config{Capacity: 2.5e9, BaseRTT: 0.033, RandomLoss: 5e-6, MaxCwnd: 4 << 20}

	capShapes = []capShape{
		{"uncapped", Config{Capacity: 5e9, BaseRTT: 0.012, RandomLoss: 5e-6}, []int{4, 4}, true, 300, false, false},
		{"ANL->UChicago", figUChicago, repeat(24, 3), true, 300, true, true},
		{"ANL->TACC", figTACC, []int{8, 8, 8, 8}, true, 300, true, true},
		{"lossless, buffer full", Config{Capacity: 1.25e8, BaseRTT: 0.03, MaxCwnd: 8 << 20}, []int{2, 3}, true, 300, true, false},
		{"64 single-stream flows", figUChicago, repeat(64, 1), false, 150, true, true},
		{"512 streams", figUChicago, []int{512}, false, 100, true, false},
		{"cap within 2 MSS", Config{Capacity: 5e5, BaseRTT: 0.02, RandomLoss: 1e-3, MaxCwnd: 2000}, []int{3, 5}, true, 300, true, true},
	}
)

// repeat returns n copies of v.
func repeat(n, v int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// TestCapSkipIsExact steps two identically seeded paths side by side,
// one through the substep loop of a Step that is not calm and one
// through walkEveryStream, over the shapes of
// capShapes — no cap, both figure paths, a lossless path with its buffer
// full, 64 single-stream flows, 512 streams, a cap so small a loss lands
// on it, and flows arriving, leaving and capped negative, zero and
// positive — and requires, after every Step, each stream's window and
// loss count, each flow's delivered bytes and the queue to be bit-equal,
// and each flow's count of streams at the cap to be right.
// NETEM_EQUIV_SEEDS runs more seeds.
func TestCapSkipIsExact(t *testing.T) {
	seeds := equivSeeds(16)
	for ci, sh := range capShapes {
		atCap, skipped := false, false
		for seed := 0; seed < seeds; seed++ {
			where := fmt.Sprintf("%s, seed %d", sh.name, seed)
			a, b := New(sh.cfg, sim.NewRNG(uint64(seed))), New(sh.cfg, sim.NewRNG(uint64(seed)))
			for _, n := range sh.flows {
				a.NewFlow(n, tcpmodel.NewHTCP())
				b.NewFlow(n, tcpmodel.NewHTCP())
			}
			chooseA, chooseB := sim.NewRNG(uint64(500+ci)), sim.NewRNG(uint64(500+ci))
			for step := 0; step < sh.steps; step++ {
				if sh.mutate {
					mutatePath(chooseA, a)
					mutatePath(chooseB, b)
				}
				dt := equivDTs[chooseA.IntN(len(equivDTs))]
				chooseB.IntN(len(equivDTs))
				substepLoop(a, dt)
				walkEveryStream(b, dt)
				if err := sameState(a, b); err != nil {
					t.Fatalf("%s: step %d: %v", where, step, err)
				}
				for i, f := range a.flows {
					full := 0
					for j := range f.strs {
						if f.strs[j].tcp.Cwnd == sh.cfg.MaxCwnd {
							full++
						}
					}
					if f.full != full {
						t.Fatalf("%s: step %d flow %d: kept %d streams at the cap, counted %d", where, step, i, f.full, full)
					}
					n := len(f.strs)
					atCap = atCap || full > 0
					skipped = skipped || full == n && f.nActive == n
				}
			}
		}
		if sh.atCap != atCap {
			t.Errorf("%s: some stream reached the cap: %v, want %v", sh.name, atCap, sh.atCap)
		}
		if sh.skipped && !skipped {
			t.Errorf("%s: no flow ever had every stream at the cap and none cooling down", sh.name)
		}
	}
}

// sameState reports the first difference between a and b in the queue,
// the delivered rate, the clock, a flow's offered and delivered rates,
// delivered bytes or loss clock, or a stream's window or loss count.
func sameState(a, b *Path) error {
	differ := func(what string, x, y float64) error {
		if math.Float64bits(x) != math.Float64bits(y) {
			return fmt.Errorf("%s %v, reference %v", what, x, y)
		}
		return nil
	}
	if err := errors.Join(differ("queue", a.queue, b.queue),
		differ("delivered rate", a.lastTotal, b.lastTotal), differ("clock", a.now, b.now)); err != nil {
		return err
	}
	if len(a.flows) != len(b.flows) {
		return fmt.Errorf("%d flows, reference %d", len(a.flows), len(b.flows))
	}
	for i, fa := range a.flows {
		fb := b.flows[i]
		if err := errors.Join(differ("offered", fa.offered, fb.offered), differ("rate", fa.rate, fb.rate),
			differ("delivered", fa.delivered, fb.delivered), differ("loss clock", fa.clock, fb.clock)); err != nil {
			return fmt.Errorf("flow %d: %w", i, err)
		}
		for j := range fa.strs {
			sa, sb := fa.strs[j].tcp, fb.strs[j].tcp
			if math.Float64bits(sa.Cwnd) != math.Float64bits(sb.Cwnd) || sa.Losses != sb.Losses {
				return fmt.Errorf("flow %d stream %d: cwnd %v after %d losses, reference %v after %d",
					i, j, sa.Cwnd, sa.Losses, sb.Cwnd, sb.Losses)
			}
		}
	}
	return nil
}
