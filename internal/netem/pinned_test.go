package netem

import (
	"fmt"
	"math"
	"testing"

	"dstune/internal/sim"
	"dstune/internal/tcpmodel"
)

// preSettleStep is Path.Step with the calm Step it had before a flow
// pinned at its cap was settled in one step: every flow of a calm Step
// runs preSettleCalm. A Step that is not calm is Step's own.
// TestPinnedSettleIsExact holds Step to it bit for bit.
func preSettleStep(p *Path, dt float64) {
	if dt <= 0 {
		return
	}
	if !p.begin() {
		p.Step(dt)
		return
	}
	_, h := p.substeps(dt)
	rtt := p.RTT()
	end := stepEnd(p, dt)
	c := calm{rtt: rtt, invRTT: 1 / rtt, cool: math.Max(rtt, 2*h), kRate: p.cfg.RandomLoss / (rtt * tcpmodel.DefaultMSS), end: end}
	c.lead = max(c.cool-rtt/2-h, 0)
	for _, f := range p.flows {
		preSettleCalm(f, &c, p.now)
	}
	p.now = end
}

// preSettleCalm is Flow.calm without settle: every flow goes from event
// to event through advance, a pinned one included.
func preSettleCalm(f *Flow, c *calm, t float64) {
	if !f.laws {
		f.strs[0].tcp.ObserveRTT(c.rtt)
		f.derive(c, t)
	} else if t-f.at > rebaseAfter {
		f.rebase(t)
	}
	wt := f.cwnd
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

// pinShape is one path and population of TestPinnedSettleIsExact. Each
// flow's cap starts below its windows' rate at MaxCwnd.
type pinShape struct {
	name    string
	cfg     Config
	flows   []int     // streams of each flow
	caps    []float64 // each flow's cap, cycled over the flows
	steps   int
	stagger bool // the flows arrive one a Step from the first, not all before it
}

// figLossy is the 12 ms path with twenty times the figures' random loss,
// so that a stream of a pinned flow cools down every second or so.
var figLossy = Config{Capacity: 5e9, BaseRTT: 0.012, RandomLoss: 1e-4, MaxCwnd: 4 << 20}

var pinShapes = []pinShape{
	{"Fig 5(e) mix", figUChicago, append(repeat(64, 1), 4, 4, 4, 4), []float64{5e7}, 150, false},
	{"lossy, multi-stream", figLossy, []int{4, 4, 8, 1, 2}, []float64{1e8, 2e8, 5e7}, 300, false},
	{"small windows", Config{Capacity: 5e6, BaseRTT: 0.02, RandomLoss: 1e-4, MaxCwnd: 1 << 15}, []int{1, 3, 2}, []float64{5e5, 1e6}, 300, false},
	// Flows born pinned, a Step apart, take up their closed forms at small
	// times: until they are re-expressed a second on, the Step's start and
	// end less such a time are not exact, and a settle that rounds
	// differently from the loop's operands shows.
	{"born pinned, staggered", figUChicago, []int{1, 2, 1, 4, 1, 3, 1, 2}, []float64{1e5, 3e5}, 120, true},
}

// pinMutate applies random changes, drawn from choose, to p before a
// Step of dt: it moves a flow's cap past or below its windows' rate,
// unsets or blocks it, runs a loss clock nearly out, and moves a
// growing stream's next event to exactly the Step's end. The draws
// depend only on choose and the path's shape, which two paths in
// lockstep share.
func pinMutate(choose *sim.RNG, p *Path, dt float64) {
	n := len(p.flows)
	if n == 0 {
		return
	}
	f := p.flows[choose.IntN(n)]
	switch r := choose.Float64(); {
	case r < 0.15:
		// A cap just past or just below the windows' rate, or far from it.
		scale := []float64{0.5, 0.97, 0.999, 1.001, 1.03, 2}[choose.IntN(6)]
		f.SetCap(max(f.OfferedRate(), 1e4) * scale)
	case r < 0.18:
		f.SetCap([]float64{0, -1}[choose.IntN(2)])
	case r < 0.22:
		f.clock = choose.Float64() * 1e-4
	case r < 0.5:
		eventAtEnd(f, stepEnd(p, dt))
	}
}

// stepEnd returns the end of p's coming Step of dt, summed substep by
// substep as calmStep sums it.
func stepEnd(p *Path, dt float64) float64 {
	n, h := p.substeps(dt)
	end := p.now
	for i := 0; i < n; i++ {
		end += h
	}
	return end
}

// eventAtEnd moves the end of the flow's first growing stream's law to
// end, where that comes before the law's own end, so that the stream's
// next event falls at end: exactly, unless end less the law's start
// does not round back to it.
func eventAtEnd(f *Flow, end float64) {
	if !f.laws {
		return
	}
	for i := range f.strs {
		s := &f.strs[i]
		if s.phase != grows || !(end > s.from && end < s.next) {
			continue
		}
		s.g.Until = end - s.from
		s.g.End, s.g.AtCap = s.g.At(s.g.Until), false
		s.next = s.from + s.g.Until // end, unless end − from does not round back to it
		f.next = min(f.next, s.next)
		return
	}
}

// pinCounts counts, over the flow-Steps of calm Steps, the states
// TestPinnedSettleIsExact must reach: a flow pinned at its cap from the
// Step's start (capped, windows over the cap, no stream cooling, no
// event before the end), such a flow whose next event is exactly the
// end, such a flow whose loss clock ran out in the Step, a flow over its
// cap but with a stream cooling, and one over its cap with an event
// inside the Step.
type pinCounts struct {
	pinned, atEnd, lost, cooling, inside int
}

// count adds the flow-Steps of p's coming calm Step of dt, before it is
// taken; after returns what to count once it has been.
func (pc *pinCounts) count(p *Path, dt float64) (after func()) {
	if !p.begin() {
		return func() {}
	}
	end := stepEnd(p, dt)
	invRTT := 1 / p.RTT()
	var pinned []*Flow
	var lost []uint64
	for _, f := range p.flows {
		if !f.laws || !(f.cap > 0) || !(f.cwnd*invRTT > f.cap) {
			continue
		}
		switch {
		case f.nCool > 0:
			pc.cooling++
		case f.next < end:
			pc.inside++
		default:
			pc.pinned++
			if f.next == end {
				pc.atEnd++
			}
			pinned, lost = append(pinned, f), append(lost, losses(f))
		}
	}
	return func() {
		for i, f := range pinned {
			if losses(f) > lost[i] {
				pc.lost++
			}
		}
	}
}

// TestPinnedSettleIsExact holds a calm Step's settle of a pinned flow to
// the event-to-event loop it skips, bit for bit: it steps two
// identically seeded paths side by side, one through Step and one
// through preSettleStep, for each of the four CC laws, over the Fig 5(e)
// mix, a lossy path whose pinned multi-stream flows cool down often,
// and a path of small windows, while caps rise past and fall below the
// windows, flows are blocked and uncapped, loss clocks run out inside a
// Step, and streams' events fall exactly at a Step's end. After every
// Step the two must agree as sameState says, and over all Steps each
// state pinCounts names must have been reached. NETEM_EQUIV_SEEDS runs
// more seeds.
func TestPinnedSettleIsExact(t *testing.T) {
	seeds := equivSeeds(16, 2)
	var pc pinCounts
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
				chooseA, chooseB := sim.NewRNG(uint64(1100+10*ci+ai)), sim.NewRNG(uint64(1100+10*ci+ai))
				for step := 0; step < sh.steps; step++ {
					if sh.stagger && step < len(sh.flows) {
						sh.attach(a, step, alg)
						sh.attach(b, step, alg)
					}
					dt := equivDTs[chooseA.IntN(len(equivDTs))]
					chooseB.IntN(len(equivDTs))
					pinMutate(chooseA, a, dt)
					pinMutate(chooseB, b, dt)
					after := pc.count(a, dt)
					a.Step(dt)
					preSettleStep(b, dt)
					after()
					if err := sameState(a, b); err != nil {
						t.Fatalf("%s: step %d: %v", where, step, err)
					}
				}
			}
		}
	}
	t.Logf("pinned flow-Steps %d (event at the end %d, clock out %d); over the cap with a stream cooling %d, with an event inside %d",
		pc.pinned, pc.atEnd, pc.lost, pc.cooling, pc.inside)
	for _, c := range []struct {
		what string
		n    int
	}{
		{"pinned flow-Steps", pc.pinned}, {"pinned flows with an event at the end", pc.atEnd},
		{"pinned flows whose clock ran out", pc.lost}, {"flows over their cap with a stream cooling", pc.cooling},
		{"flows over their cap with an event inside the Step", pc.inside},
	} {
		if c.n == 0 {
			t.Errorf("no %s", c.what)
		}
	}
}

// attach attaches the shape's i-th flow to p, on alg, at its cap.
func (sh pinShape) attach(p *Path, i int, alg tcpmodel.Algorithm) {
	p.NewFlow(sh.flows[i], alg).SetCap(sh.caps[i%len(sh.caps)])
}
