package tcpmodel

import "math"

// Growth is a window's growth between its stream's events, as a closed
// form of x, the seconds since the moment it was taken:
//
//	w(x) = P[0] + P[1]·x + P[2]·x² + P[3]·x³ + E·exp(R·x)
//
// It is what OnRTT's round trips come to when the window grows smoothly
// instead of once an RTT: Reno's one MSS an RTT is linear, CUBIC's
// curve is cubic, H-TCP's α = 1 + 10d + d²/4 segments an RTT integrates
// to a cubic, and Scalable's 1% an RTT and slow start's doubling are
// geometric. The form holds for x ≤ Until. There the window is End and
// either reaches the stream's MaxCwnd (AtCap), where it stays until a
// loss, or its law changes — it leaves slow start, H-TCP passes htcpDeltaL,
// Scalable's 1% passes one MSS — and the algorithm's Grow must be asked
// again.
type Growth struct {
	P     [4]float64
	E, R  float64
	Until float64
	End   float64
	AtCap bool
}

// At returns the window x seconds on, before the cap.
func (g Growth) At(x float64) float64 {
	w := g.P[0] + x*(g.P[1]+x*(g.P[2]+x*g.P[3]))
	if g.E != 0 {
		w += g.E * math.Exp(g.R*x)
	}
	return w
}

// slope returns the window's rate of growth x seconds on.
func (g Growth) slope(x float64) float64 {
	d := g.P[1] + x*(2*g.P[2]+x*3*g.P[3])
	if g.E != 0 {
		d += g.E * g.R * math.Exp(g.R*x)
	}
	return d
}

// Shift returns the growth from x seconds on: the same curve, taken x
// seconds later.
func (g Growth) Shift(x float64) Growth {
	g.P = ShiftPoly(g.P, x)
	if g.E != 0 {
		g.E *= math.Exp(g.R * x)
	}
	g.Until = max(g.Until-x, 0)
	return g
}

// ShiftPoly returns the cubic p[0] + p[1]·x + p[2]·x² + p[3]·x³ taken x
// later: Shift's polynomial part.
func ShiftPoly(p [4]float64, x float64) [4]float64 {
	return [4]float64{
		p[0] + x*(p[1]+x*(p[2]+x*p[3])),
		p[1] + x*(2*p[2]+x*3*p[3]),
		p[2] + x*3*p[3],
		p[3],
	}
}

// Move sets s's window to where g has taken it x seconds on: End once x
// reaches Until, where a stream in slow start that reaches its Ssthresh
// leaves it, as slowStartStep does.
func (g Growth) Move(s *Stream, x float64) {
	if x < g.Until {
		s.Cwnd = g.At(x)
		s.clamp()
		return
	}
	s.Cwnd = g.End
	if s.SlowStart && s.Cwnd >= s.Ssthresh {
		s.SlowStart = false
	}
}

// capped clamps g to s's MaxCwnd: if the window reaches it before Until,
// the growth ends there, at the cap. A window already at or above the
// cap ends at once.
func (g Growth) capped(s *Stream) Growth {
	if s.MaxCwnd <= 0 {
		return g
	}
	if s.Cwnd >= s.MaxCwnd {
		return Growth{P: [4]float64{s.MaxCwnd}, End: s.MaxCwnd, AtCap: true}
	}
	if x := g.reach(s.MaxCwnd); x <= g.Until {
		g.Until, g.End, g.AtCap = x, s.MaxCwnd, true
	}
	return g
}

// reach returns the first x at which g, which never shrinks, comes to
// w (+Inf if it never does). It takes the forms Grow returns but
// CUBIC's, which reaches its cap in closed form itself: a geometric
// growth has it in closed form, and on a line or a cubic with no
// negative coefficient (H-TCP's) Newton's method converges from above,
// starting from the least of the times each term alone would take — at
// once on a line.
func (g Growth) reach(w float64) float64 {
	d := w - g.At(0)
	switch {
	case d <= 0:
		return 0
	case g.E != 0: // geometric forms have no polynomial part
		return math.Log(w/g.E) / g.R
	}
	x := math.Inf(1)
	if g.P[1] > 0 {
		x = d / g.P[1]
	}
	if g.P[2] > 0 {
		x = min(x, math.Sqrt(d/g.P[2]))
	}
	if g.P[3] > 0 {
		x = min(x, math.Cbrt(d/g.P[3]))
	}
	for i := 0; i < 100 && !math.IsInf(x, 1); i++ {
		nx := x - (g.At(x)-w)/g.slope(x)
		if !(nx < x) || x-nx <= 1e-15*x {
			return nx
		}
		x = nx
	}
	return x
}

// slowStartGrowth is slow start's doubling an RTT as a geometric growth
// up to Ssthresh, and reports whether s is in slow start.
func slowStartGrowth(s *Stream, rtt float64) (Growth, bool) {
	if !s.SlowStart {
		return Growth{}, false
	}
	g := Growth{E: s.Cwnd, R: math.Ln2 / rtt, Until: math.Inf(1)}
	if !math.IsInf(s.Ssthresh, 1) {
		g.Until, g.End = max(math.Log(s.Ssthresh/s.Cwnd)/g.R, 0), s.Ssthresh
	}
	return g.capped(s), true
}

// linear is a growth of a MSS every RTT, with no end of its own.
func linear(s *Stream, rtt float64) Growth {
	return Growth{P: [4]float64{s.Cwnd, s.MSS / rtt}, Until: math.Inf(1)}
}

// Grow implements Algorithm: a Reno window grows by one MSS an RTT.
func (Reno) Grow(s *Stream, rtt float64) Growth {
	if g, ok := slowStartGrowth(s, rtt); ok {
		return g
	}
	return linear(s, rtt).capped(s)
}

// Grow implements Algorithm: the window follows the cubic through the
// last loss's WMax that OnRTT targets, in time from where the window is
// on it now.
func (CUBIC) Grow(s *Stream, rtt float64) Growth {
	if g, ok := slowStartGrowth(s, rtt); ok {
		return g
	}
	wmax := s.WMax / s.MSS
	if wmax <= 0 {
		wmax = s.Cwnd / s.MSS
	}
	// w(x) = MSS·(C·(x+u)³ + wmax), u the window's place on the curve
	// relative to its plateau (-K right after a loss).
	u := math.Cbrt((s.Cwnd/s.MSS - wmax) / cubicC)
	k := s.MSS * cubicC
	g := Growth{P: [4]float64{s.Cwnd, 3 * k * u * u, 3 * k * u, k}, Until: math.Inf(1)}
	if s.MaxCwnd > 0 && s.Cwnd < s.MaxCwnd {
		// The curve reaches the cap where (x+u)³ = (MaxCwnd/MSS - wmax)/C.
		g.Until = max(math.Cbrt((s.MaxCwnd/s.MSS-wmax)/cubicC)-u, 0)
		g.End, g.AtCap = s.MaxCwnd, true
		return g
	}
	return g.capped(s)
}

// sinceEps is how near htcpDeltaL a time since loss counts as past it, so
// that the event ending H-TCP's low-speed phase cannot recur.
const sinceEps = 1e-9

// Grow implements Algorithm: one MSS an RTT up to htcpDeltaL after a loss,
// then α(d) = 1 + 10d + d²/4 segments an RTT, whose integral is cubic in
// the time since.
func (HTCP) Grow(s *Stream, rtt float64) Growth {
	if g, ok := slowStartGrowth(s, rtt); ok {
		return g
	}
	d := s.SinceLoss - htcpDeltaL
	if d < -sinceEps {
		g := linear(s, rtt)
		g.Until = -d
		g.End = g.At(-d)
		return g.capped(s)
	}
	d = max(d, 0)
	m := s.MSS / rtt
	g := Growth{P: [4]float64{s.Cwnd, m * (1 + 10*d + d*d/4), m * (5 + d/4), m / 12}, Until: math.Inf(1)}
	return g.capped(s)
}

// Grow implements Algorithm: one MSS an RTT while 1% of the window is
// less, then 1% an RTT.
func (Scalable) Grow(s *Stream, rtt float64) Growth {
	if g, ok := slowStartGrowth(s, rtt); ok {
		return g
	}
	if th := s.MSS / scalableA; s.Cwnd < th {
		g := linear(s, rtt)
		g.Until = (th - s.Cwnd) * rtt / s.MSS
		g.End = th
		return g.capped(s)
	}
	return Growth{E: s.Cwnd, R: math.Log1p(scalableA) / rtt, Until: math.Inf(1)}.capped(s)
}
