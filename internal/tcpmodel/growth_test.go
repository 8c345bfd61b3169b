package tcpmodel

import (
	"fmt"
	"math"
	"testing"
)

// growthStarts are the stream states TestGrow* start each algorithm
// from: slow start, just after a loss, and 1.5 s of round trips after
// one (H-TCP past its DeltaL), each with the cap far off and near.
func growthStarts(alg Algorithm) map[string]Stream {
	starts := map[string]Stream{}
	for _, maxCwnd := range []float64{4 << 20, 96 << 10} {
		fresh := NewStream(maxCwnd)
		starts[fmt.Sprintf("slow start, cap %v", maxCwnd)] = fresh
		lost := fresh
		lost.SlowStart = false
		lost.Cwnd = maxCwnd
		alg.OnLoss(&lost)
		starts[fmt.Sprintf("after a loss, cap %v", maxCwnd)] = lost
		late := lost
		for late.SinceLoss < 1.5 {
			late.SinceLoss += 0.012
			alg.OnRTT(&late, 0.012)
		}
		starts[fmt.Sprintf("1.5 s after a loss, cap %v", maxCwnd)] = late
	}
	return starts
}

// TestGrowBracketsOnRTT holds every algorithm's closed form to the
// round trips it stands for: from each start, m round trips of OnRTT
// (with SinceLoss advanced as the emulator advances it) leave the window
// at or above where Grow's form is m RTTs on, and m-1 of them at or
// below it — the form climbs within the staircase OnRTT climbs — until
// the cap, where both stop at MaxCwnd.
func TestGrowBracketsOnRTT(t *testing.T) {
	const rtt = 0.012
	for _, alg := range allAlgorithms() {
		for what, start := range growthStarts(alg) {
			s, stairs := start, []float64{start.Cwnd}
			for i := 0; i < 2000 && s.Cwnd < s.MaxCwnd; i++ {
				s.SinceLoss += rtt
				alg.OnRTT(&s, rtt)
				stairs = append(stairs, s.Cwnd)
			}
			form := start
			x := 0.0 // seconds since start
			g := alg.Grow(&form, rtt)
			for m := 1; m < len(stairs); m++ {
				for x+g.Until < float64(m)*rtt && !g.AtCap {
					g.Move(&form, g.Until)
					x += g.Until
					form.SinceLoss = start.SinceLoss + x
					g = alg.Grow(&form, rtt)
				}
				w := form.MaxCwnd
				if y := float64(m)*rtt - x; y < g.Until {
					w = g.At(y)
				}
				lo, hi := stairs[m-1], stairs[m]
				if m+1 < len(stairs) {
					hi = stairs[m+1]
				}
				if w < lo*(1-1e-12) || w > hi*(1+1e-12) {
					t.Fatalf("%T, %s: %d RTTs on the form is at %v, the round trips at %v, %v, %v",
						alg, what, m, w, lo, stairs[m], hi)
				}
			}
		}
	}
}

// TestGrowReachesCap: from every start, following Grow from event to
// event ends at MaxCwnd exactly, in a few changes of law, each of which
// ends later than it starts; the form is not past the cap before its end
// and is at it there.
func TestGrowReachesCap(t *testing.T) {
	const rtt = 0.033
	for _, alg := range allAlgorithms() {
		for what, s := range growthStarts(alg) {
			for laws := 1; ; laws++ {
				g := alg.Grow(&s, rtt)
				if laws > 4 {
					t.Fatalf("%T, %s: still growing after %d laws", alg, what, laws)
				}
				if !(g.Until > 0) && !g.AtCap {
					t.Fatalf("%T, %s: law %d ends where it starts", alg, what, laws)
				}
				for _, f := range []float64{0.5, 0.9, 0.999} {
					if w := g.At(f * g.Until); g.Until > 0 && w > s.MaxCwnd*(1+1e-12) {
						t.Fatalf("%T, %s: law %d is past the cap, at %v, before its end", alg, what, laws, w)
					}
				}
				g.Move(&s, g.Until)
				s.SinceLoss += g.Until
				if g.AtCap {
					if s.Cwnd != s.MaxCwnd || math.Abs(g.At(g.Until)-s.MaxCwnd) > 1e-9*s.MaxCwnd {
						t.Fatalf("%T, %s: law %d ends at %v (form %v), want the cap %v",
							alg, what, laws, s.Cwnd, g.At(g.Until), s.MaxCwnd)
					}
					break
				}
			}
		}
	}
}

// TestGrowShift: a form shifted by x is the same curve taken x later,
// with x less to run.
func TestGrowShift(t *testing.T) {
	for _, alg := range allAlgorithms() {
		for what, s := range growthStarts(alg) {
			g := alg.Grow(&s, 0.02)
			for _, x := range []float64{0, 0.001, 0.3, 2} {
				h := g.Shift(x)
				for _, y := range []float64{0, 0.01, 0.5} {
					if a, b := h.At(y), g.At(x+y); math.Abs(a-b) > 1e-12*b {
						t.Errorf("%T, %s: shifted by %v, at %v: %v, unshifted %v", alg, what, x, y, a, b)
					}
				}
				if want := max(g.Until-x, 0); h.Until != want {
					t.Errorf("%T, %s: shifted by %v: Until %v, want %v", alg, what, x, h.Until, want)
				}
			}
		}
	}
}
