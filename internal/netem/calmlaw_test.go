package netem

import (
	"fmt"
	"math"
	"testing"

	"dstune/internal/sim"
	"dstune/internal/tcpmodel"
)

// lawShape is one path and population of TestCalmLawMatchesReference,
// all of whose Steps are calm.
type lawShape struct {
	name  string
	cfg   Config
	flows []int     // streams of each flow
	caps  []float64 // each flow's cap, cycled over the flows; nil leaves none
	steps int
}

var lawShapes = []lawShape{
	// The tuned figures' traffic: capped flows, most windows at the cap.
	{"figure mix", figUChicago, repeat(8, 3), []float64{mixCap}, 600},
	// Uncapped flows whose windows at the cap still fit the path: each
	// window grows to MaxCwnd and loses there.
	{"uncapped, under capacity", Config{Capacity: 5e9, BaseRTT: 0.012, RandomLoss: 2e-5, MaxCwnd: 1 << 20}, []int{4, 2}, nil, 600},
	// Losses every few round trips, where the cool-down is a good part
	// of a window's life; caps positive, none and negative.
	{"lossy, small windows", Config{Capacity: 1e9, BaseRTT: 0.02, RandomLoss: 2e-3, MaxCwnd: 64 << 10}, []int{4, 3, 2}, []float64{2e6, 0, -1}, 600},
}

// windowBins is how many bins of MaxCwnd/windowBins the window-time
// distribution has below the cap; one more holds the windows at it.
const windowBins = 4

// lawRun is what one seeded run of a lawShape measured.
type lawRun struct {
	losses float64                 // per stream and virtual second
	bytes  float64                 // delivered per flow and Step
	window [windowBins + 1]float64 // share of stream-Step ends with the window in each bin
}

// runLaw drives a path of sh, every flow on alg, seeded by seed, through
// sh.steps Steps of lengths drawn from equivDTs, with step.
func runLaw(sh lawShape, alg tcpmodel.Algorithm, seed uint64, step func(*Path, float64)) lawRun {
	p := New(sh.cfg, sim.NewRNG(seed))
	for i, n := range sh.flows {
		f := p.NewFlow(n, alg)
		if sh.caps != nil {
			f.SetCap(sh.caps[i%len(sh.caps)])
		}
	}
	var r lawRun
	choose := sim.NewRNG(seed + 1<<32)
	samples := 0
	for i := 0; i < sh.steps; i++ {
		step(p, equivDTs[choose.IntN(len(equivDTs))])
		for _, f := range p.flows {
			if f.laws {
				f.sync(p.now)
			}
			for j := range f.strs {
				w := f.strs[j].tcp.Cwnd
				b := windowBins
				if w < sh.cfg.MaxCwnd {
					b = int(w / sh.cfg.MaxCwnd * windowBins)
				}
				r.window[b]++
				samples++
			}
		}
	}
	streams := 0
	for _, f := range p.flows {
		r.losses += float64(losses(f))
		r.bytes += f.Delivered()
		streams += len(f.strs)
	}
	r.losses /= float64(streams) * p.now
	r.bytes /= float64(len(p.flows) * sh.steps)
	for b := range r.window {
		r.window[b] /= float64(samples)
	}
	return r
}

// How far apart the closed-form law and the reference may measure: a
// metric passes within lawSigmas combined standard errors, or within
// lawRel of the reference's mean for losses and bytes and lawShare of
// the stream-time for a window bin. The two laws differ by design — a
// window grows smoothly rather than once an RTT, and its cool-down and
// growth start at the loss instant rather than on the substep grid —
// and with enough seeds that shows: at 1000 seeds a side the widest
// gaps are 1.3% in losses (Scalable on the lossy shape, whose windows
// lose every dozen round trips) and 0.8 points of window share.
const (
	lawSigmas = 4.0
	lawRel    = 0.02
	lawShare  = 0.01
)

// TestCalmLawMatchesReference holds the calm Step's closed-form law to
// the round-trip walk it replaced (refStep) in distribution: for each of
// the four CC laws, on a figure-mix path, an uncapped one whose windows
// grow to MaxCwnd and lose there, and a lossy one with small windows and
// caps positive, none and negative, the mean losses per stream-second,
// bytes per flow and Step, and share of Step ends a window spends in
// each quarter of MaxCwnd and at it must agree, as lawSigmas, lawRel and
// lawShare say, over a fixed set of seeds. Every Step of these shapes
// is calm. NETEM_EQUIV_SEEDS runs more seeds (CI's long form, 1000).
func TestCalmLawMatchesReference(t *testing.T) {
	seeds := equivSeeds(100)
	for _, sh := range lawShapes {
		for _, alg := range equivAlgs {
			where := sh.name + ", " + alg.Name()
			var law, ref []lawRun
			calm := true
			for s := 0; s < seeds; s++ {
				law = append(law, runLaw(sh, alg, uint64(s), func(p *Path, dt float64) {
					calm = calm && p.begin()
					p.Step(dt)
				}))
				ref = append(ref, runLaw(sh, alg, uint64(s), refStep))
			}
			if !calm {
				t.Errorf("%s: a Step was not calm", where)
			}
			worst, worstWhat, worstRel, worstShare := 0.0, "", 0.0, 0.0
			// metric compares one measure, a share of stream-time or a
			// quantity held to lawRel of the reference's.
			metric := func(what string, share bool, of func(lawRun) float64) {
				var a, b moments
				for i := range law {
					a.add(of(law[i]))
					b.add(of(ref[i]))
				}
				se := math.Sqrt(a.se2() + b.se2())
				d := math.Abs(a.mean() - b.mean())
				slack := lawShare
				if share {
					worstShare = max(worstShare, d)
				} else {
					slack = lawRel * math.Abs(b.mean())
					worstRel = max(worstRel, d/math.Abs(b.mean()))
				}
				if d > lawSigmas*se && d > slack {
					t.Errorf("%s: %s: closed form %.6g, reference %.6g, %.2f standard errors apart (se %.3g)",
						where, what, a.mean(), b.mean(), d/se, se)
				}
				if se > 0 && d/se > worst {
					worst, worstWhat = d/se, what
				}
			}
			metric("losses per stream-second", false, func(r lawRun) float64 { return r.losses })
			metric("bytes per flow-Step", false, func(r lawRun) float64 { return r.bytes })
			for b := 0; b <= windowBins; b++ {
				what := fmt.Sprintf("windows in [%d/4, %d/4) of MaxCwnd", b, b+1)
				if b == windowBins {
					what = "windows at MaxCwnd"
				}
				metric(what, true, func(r lawRun) float64 { return r.window[b] })
			}
			t.Logf("%s: %d seeds a side, widest gap %.2f standard errors (%s); %.2f%% in losses or bytes, %.2f points of window share",
				where, seeds, worst, worstWhat, 100*worstRel, 100*worstShare)
		}
	}
}
