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

// NewStream returns a stream of DefaultMSS segments in slow start with
// an initial window of ten segments (RFC 6928) and the given window cap.
func NewStream(maxCwnd float64) Stream {
	s := Stream{
		Cwnd:      10 * DefaultMSS,
		Ssthresh:  math.Inf(1),
		MSS:       DefaultMSS,
		MaxCwnd:   maxCwnd,
		SlowStart: true,
	}
	s.clamp()
	return s
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

// The algorithms' standard constants. They are typed, so that an
// expression of constants alone rounds each step to float64 as the
// run-time arithmetic does: 1 - cubicBeta is 0.30000000000000004, where
// an untyped 0.7 would fold exactly to 0.3 (TestAlgorithmsMatchParent).
const (
	// cubicC is CUBIC's scaling constant in MSS/s³.
	cubicC float64 = 0.4
	// cubicBeta is CUBIC's window decrease factor.
	cubicBeta float64 = 0.7
	// htcpDeltaL is the time in seconds after a loss below which H-TCP
	// behaves like Reno.
	htcpDeltaL float64 = 1
	// htcpBetaMin and htcpBetaMax bound H-TCP's adaptive backoff factor.
	htcpBetaMin float64 = 0.5
	htcpBetaMax float64 = 0.8
	// scalableA is Scalable TCP's per-RTT multiplicative increase.
	scalableA float64 = 0.01
	// scalableBeta is Scalable TCP's window decrease factor.
	scalableBeta float64 = 0.875
)

// CUBIC implements the CUBIC window growth function (Ha, Rhee, Xu,
// 2008), the Linux default. Growth is a cubic function of the time
// since the last loss, independent of RTT, with a 0.7 multiplicative
// decrease.
type CUBIC struct{}

// NewCUBIC returns the CUBIC algorithm.
func NewCUBIC() CUBIC { return CUBIC{} }

// Name implements Algorithm.
func (CUBIC) Name() string { return "cubic" }

// OnRTT implements Algorithm.
func (CUBIC) OnRTT(s *Stream, rtt float64) {
	if slowStartStep(s) {
		return
	}
	wmax := s.WMax / s.MSS // in segments
	if wmax <= 0 {
		wmax = s.Cwnd / s.MSS
	}
	k := math.Cbrt(wmax * (1 - cubicBeta) / cubicC)
	t := s.SinceLoss + rtt
	target := (cubicC*math.Pow(t-k, 3) + wmax) * s.MSS
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
func (CUBIC) OnLoss(s *Stream) {
	lossCommon(s)
	s.Ssthresh = math.Max(s.Cwnd*cubicBeta, 2*s.MSS)
	s.Cwnd = s.Ssthresh
	s.clamp()
}

// HTCP implements Hamilton TCP (Leith & Shorten, 2004): the additive
// increase grows quadratically with the time since the last loss, and
// the backoff factor adapts to the observed RTT ratio. This is the
// algorithm deployed on the paper's endpoints.
type HTCP struct{}

// NewHTCP returns the H-TCP algorithm.
func NewHTCP() HTCP { return HTCP{} }

// Name implements Algorithm.
func (HTCP) Name() string { return "htcp" }

// alpha returns the additive increase in segments per RTT for time
// delta since the last loss.
func (HTCP) alpha(delta float64) float64 {
	if delta <= htcpDeltaL {
		return 1
	}
	d := delta - htcpDeltaL
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
func (HTCP) OnLoss(s *Stream) {
	lossCommon(s)
	beta := htcpBetaMax
	if s.MaxRTT > 0 && s.MinRTT > 0 {
		beta = s.MinRTT / s.MaxRTT
		if beta < htcpBetaMin {
			beta = htcpBetaMin
		}
		if beta > htcpBetaMax {
			beta = htcpBetaMax
		}
	}
	s.Ssthresh = math.Max(s.Cwnd*beta, 2*s.MSS)
	s.Cwnd = s.Ssthresh
	s.clamp()
}

// Scalable implements Scalable TCP (Kelly, 2003): multiplicative
// increase of 1% per RTT and a 0.875 decrease, giving loss-recovery
// times independent of window size.
type Scalable struct{}

// NewScalable returns the Scalable TCP algorithm.
func NewScalable() Scalable { return Scalable{} }

// Name implements Algorithm.
func (Scalable) Name() string { return "scalable" }

// OnRTT implements Algorithm.
func (Scalable) OnRTT(s *Stream, rtt float64) {
	if slowStartStep(s) {
		return
	}
	s.Cwnd += math.Max(scalableA*s.Cwnd, s.MSS)
	s.clamp()
}

// OnLoss implements Algorithm.
func (Scalable) OnLoss(s *Stream) {
	lossCommon(s)
	s.Ssthresh = math.Max(s.Cwnd*scalableBeta, 2*s.MSS)
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
