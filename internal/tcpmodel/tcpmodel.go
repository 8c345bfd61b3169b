// Package tcpmodel implements fluid models of TCP congestion-control
// algorithms: the per-RTT window growth and the loss response of Reno,
// CUBIC, H-TCP, and Scalable TCP.
//
// The paper's testbed ran Hamilton TCP (H-TCP) on its endpoints and
// attributes the benefit of parallel streams to the additive-increase /
// multiplicative-decrease window dynamics of these algorithms: the slow
// additive recovery after each loss leaves bandwidth unused that extra
// streams can claim. The network emulator (internal/netem) advances one
// Stream per TCP connection with one of these algorithms, round trip by
// round trip (OnRTT) where the bottleneck is contended and by each
// algorithm's closed form (Grow) where it is not; everything here is in
// bytes and seconds.
package tcpmodel

import (
	"fmt"
	"math"
)

// DefaultMSS is the maximum segment size assumed throughout, in bytes.
// 1448 is the usual TCP payload of a 1500-byte Ethernet frame.
const DefaultMSS = 1448

// Stream holds the per-connection congestion state advanced by an
// Algorithm. Fields are exported so that the emulator and tests can
// observe and perturb them directly.
type Stream struct {
	// Cwnd is the congestion window in bytes.
	Cwnd float64
	// Ssthresh is the slow-start threshold in bytes.
	Ssthresh float64
	// MSS is the maximum segment size in bytes.
	MSS float64
	// MaxCwnd caps the window (socket buffer limit); 0 means no cap.
	MaxCwnd float64
	// SlowStart reports whether the stream is in slow start.
	SlowStart bool
	// SinceLoss is the time in seconds since the last congestion
	// event. CUBIC and H-TCP growth are functions of this value. The
	// emulator sets it just before each OnRTT (it keeps the loss time,
	// not a running count), so between updates it may be stale.
	SinceLoss float64
	// WMax is the window (bytes) at the last loss; used by CUBIC.
	WMax float64
	// MinRTT and MaxRTT are the observed round-trip extremes in
	// seconds; used by H-TCP's adaptive backoff. Zero values mean "not
	// yet observed". The emulator maintains them with ObserveRTT on one
	// stream per flow (a flow's streams see the same path RTT) and
	// copies them onto the others just before their OnLoss.
	MinRTT, MaxRTT float64
	// Losses counts congestion events, for diagnostics.
	Losses uint64
}

// NewStream returns a stream in slow start with an initial window of
// ten segments (RFC 6928) and the given window cap. A non-positive mss
// selects DefaultMSS.
func NewStream(mss, maxCwnd float64) Stream {
	if mss <= 0 {
		mss = DefaultMSS
	}
	s := Stream{
		Cwnd:      10 * mss,
		Ssthresh:  math.Inf(1),
		MSS:       mss,
		MaxCwnd:   maxCwnd,
		SlowStart: true,
	}
	s.clamp()
	return s
}

// Rate returns the window-limited sending rate in bytes per second for
// the given round-trip time.
func (s *Stream) Rate(rtt float64) float64 {
	if rtt <= 0 {
		return 0
	}
	return s.Cwnd / rtt
}

// ObserveRTT folds one RTT sample into the stream's min/max tracking.
func (s *Stream) ObserveRTT(rtt float64) {
	if rtt <= 0 {
		return
	}
	if s.MinRTT == 0 || rtt < s.MinRTT {
		s.MinRTT = rtt
	}
	if rtt > s.MaxRTT {
		s.MaxRTT = rtt
	}
}

// clamp keeps the window within [MSS, MaxCwnd].
func (s *Stream) clamp() {
	if s.MaxCwnd > 0 && s.Cwnd > s.MaxCwnd {
		s.Cwnd = s.MaxCwnd
	}
	if s.Cwnd < s.MSS {
		s.Cwnd = s.MSS
	}
}

// Algorithm is a TCP congestion-control policy. Implementations must be
// safe for use by multiple Streams concurrently only if each Stream is
// confined to one goroutine; the methods mutate the Stream, never the
// Algorithm.
type Algorithm interface {
	// Name returns the algorithm's conventional name.
	Name() string
	// OnRTT advances the window after one round trip with no loss. It
	// never shrinks a window (slow start runs with Ssthresh +Inf) except
	// to clamp it to MaxCwnd, so a window at MaxCwnd is a fixed point:
	// OnRTT leaves it bit-identical, whatever the rest of the Stream
	// holds. internal/netem skips the round trips of a stream at the cap
	// on the strength of this.
	OnRTT(s *Stream, rtt float64)
	// Grow returns OnRTT's growth from s as it is now, s.SinceLoss
	// seconds after its last loss, as a closed form in continuous time
	// up to the stream's next event: reaching MaxCwnd, or a change of
	// law. internal/netem moves the streams of a calm Step from event to
	// event by it instead of round trip by round trip.
	Grow(s *Stream, rtt float64) Growth
	// OnLoss applies the multiplicative decrease for one congestion
	// event.
	OnLoss(s *Stream)
}

// slowStartStep performs the doubling phase shared by all algorithms.
// It reports whether the stream was (and remains) in slow start.
func slowStartStep(s *Stream) bool {
	if !s.SlowStart {
		return false
	}
	s.Cwnd *= 2
	if s.Cwnd >= s.Ssthresh {
		s.Cwnd = s.Ssthresh
		s.SlowStart = false
	}
	s.clamp()
	return true
}

// lossCommon applies bookkeeping shared by all loss responses.
func lossCommon(s *Stream) {
	s.SlowStart = false
	s.SinceLoss = 0
	s.WMax = s.Cwnd
	s.Losses++
}

// Reno implements classic TCP Reno AIMD: +1 MSS per RTT, halve on loss.
type Reno struct{}

// NewReno returns the Reno algorithm.
func NewReno() Reno { return Reno{} }

// Name implements Algorithm.
func (Reno) Name() string { return "reno" }

// OnRTT implements Algorithm.
func (Reno) OnRTT(s *Stream, rtt float64) {
	if slowStartStep(s) {
		return
	}
	s.Cwnd += s.MSS
	s.clamp()
}

// OnLoss implements Algorithm.
func (Reno) OnLoss(s *Stream) {
	lossCommon(s)
	s.Ssthresh = math.Max(s.Cwnd/2, 2*s.MSS)
	s.Cwnd = s.Ssthresh
	s.clamp()
}

// CUBIC implements the CUBIC window growth function (Ha, Rhee, Xu,
// 2008), the Linux default. Growth is a cubic function of the time
// since the last loss, independent of RTT, with a 0.7 multiplicative
// decrease.
type CUBIC struct {
	// C is the cubic scaling constant in MSS/s^3; the standard value
	// is 0.4.
	C float64
	// Beta is the window decrease factor; the standard value is 0.7.
	Beta float64
}

// NewCUBIC returns CUBIC with the standard constants.
func NewCUBIC() CUBIC { return CUBIC{C: 0.4, Beta: 0.7} }

// Name implements Algorithm.
func (CUBIC) Name() string { return "cubic" }

// OnRTT implements Algorithm.
func (c CUBIC) OnRTT(s *Stream, rtt float64) {
	if slowStartStep(s) {
		return
	}
	wmax := s.WMax / s.MSS // in segments
	if wmax <= 0 {
		wmax = s.Cwnd / s.MSS
	}
	k := math.Cbrt(wmax * (1 - c.Beta) / c.C)
	t := s.SinceLoss + rtt
	target := (c.C*math.Pow(t-k, 3) + wmax) * s.MSS
	if target > s.Cwnd {
		// Standard CUBIC paces toward the target over one RTT.
		s.Cwnd += (target - s.Cwnd)
	} else {
		// TCP-friendly floor: grow at least like Reno.
		s.Cwnd += s.MSS
	}
	s.clamp()
}

// OnLoss implements Algorithm.
func (c CUBIC) OnLoss(s *Stream) {
	lossCommon(s)
	s.Ssthresh = math.Max(s.Cwnd*c.Beta, 2*s.MSS)
	s.Cwnd = s.Ssthresh
	s.clamp()
}

// HTCP implements Hamilton TCP (Leith & Shorten, 2004): the additive
// increase grows quadratically with the time since the last loss, and
// the backoff factor adapts to the observed RTT ratio. This is the
// algorithm deployed on the paper's endpoints.
type HTCP struct {
	// DeltaL is the low-speed threshold in seconds below which H-TCP
	// behaves like Reno; the standard value is 1 s.
	DeltaL float64
	// BetaMin and BetaMax bound the adaptive backoff factor; the
	// standard bounds are 0.5 and 0.8.
	BetaMin, BetaMax float64
}

// NewHTCP returns H-TCP with the standard constants.
func NewHTCP() HTCP { return HTCP{DeltaL: 1.0, BetaMin: 0.5, BetaMax: 0.8} }

// Name implements Algorithm.
func (HTCP) Name() string { return "htcp" }

// alpha returns the additive increase in segments per RTT for time
// delta since the last loss.
func (h HTCP) alpha(delta float64) float64 {
	if delta <= h.DeltaL {
		return 1
	}
	d := delta - h.DeltaL
	return 1 + 10*d + 0.25*d*d
}

// OnRTT implements Algorithm.
func (h HTCP) OnRTT(s *Stream, rtt float64) {
	if slowStartStep(s) {
		return
	}
	s.Cwnd += h.alpha(s.SinceLoss) * s.MSS
	s.clamp()
}

// OnLoss implements Algorithm.
func (h HTCP) OnLoss(s *Stream) {
	lossCommon(s)
	beta := h.BetaMax
	if s.MaxRTT > 0 && s.MinRTT > 0 {
		beta = s.MinRTT / s.MaxRTT
		if beta < h.BetaMin {
			beta = h.BetaMin
		}
		if beta > h.BetaMax {
			beta = h.BetaMax
		}
	}
	s.Ssthresh = math.Max(s.Cwnd*beta, 2*s.MSS)
	s.Cwnd = s.Ssthresh
	s.clamp()
}

// Scalable implements Scalable TCP (Kelly, 2003): multiplicative
// increase of 1% per RTT and a 0.875 decrease, giving loss-recovery
// times independent of window size.
type Scalable struct {
	// A is the per-RTT multiplicative increase; the standard value is
	// 0.01.
	A float64
	// Beta is the decrease factor; the standard value is 0.875.
	Beta float64
}

// NewScalable returns Scalable TCP with the standard constants.
func NewScalable() Scalable { return Scalable{A: 0.01, Beta: 0.875} }

// Name implements Algorithm.
func (Scalable) Name() string { return "scalable" }

// OnRTT implements Algorithm.
func (sc Scalable) OnRTT(s *Stream, rtt float64) {
	if slowStartStep(s) {
		return
	}
	s.Cwnd += math.Max(sc.A*s.Cwnd, s.MSS)
	s.clamp()
}

// OnLoss implements Algorithm.
func (sc Scalable) OnLoss(s *Stream) {
	lossCommon(s)
	s.Ssthresh = math.Max(s.Cwnd*sc.Beta, 2*s.MSS)
	s.Cwnd = s.Ssthresh
	s.clamp()
}

// ByName returns the algorithm with the given conventional name
// ("reno", "cubic", "htcp", or "scalable").
func ByName(name string) (Algorithm, error) {
	switch name {
	case "reno":
		return NewReno(), nil
	case "cubic":
		return NewCUBIC(), nil
	case "htcp":
		return NewHTCP(), nil
	case "scalable":
		return NewScalable(), nil
	}
	return nil, fmt.Errorf("tcpmodel: unknown algorithm %q", name)
}

// Names lists the available algorithm names.
func Names() []string { return []string{"reno", "cubic", "htcp", "scalable"} }
