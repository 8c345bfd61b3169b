package tcpmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func allAlgorithms() []Algorithm {
	return []Algorithm{NewReno(), NewCUBIC(), NewHTCP(), NewScalable()}
}

// streamOfMSS is NewStream's stream with segments of mss bytes: an
// initial window of ten of them under the cap maxCwnd.
func streamOfMSS(mss, maxCwnd float64) Stream {
	s := NewStream(maxCwnd)
	s.MSS, s.Cwnd = mss, 10*mss
	s.clamp()
	return s
}

func TestNewStreamDefaults(t *testing.T) {
	s := NewStream(0)
	if s.MSS != DefaultMSS {
		t.Fatalf("MSS = %v, want %v", s.MSS, DefaultMSS)
	}
	if s.Cwnd != 10*DefaultMSS {
		t.Fatalf("initial Cwnd = %v, want %v", s.Cwnd, 10*DefaultMSS)
	}
	if !s.SlowStart {
		t.Fatal("new stream not in slow start")
	}
}

func TestNewStreamCapApplied(t *testing.T) {
	s := streamOfMSS(1000, 5000)
	if s.Cwnd > 5000 {
		t.Fatalf("Cwnd = %v exceeds cap 5000", s.Cwnd)
	}
}

func TestSlowStartDoubles(t *testing.T) {
	for _, alg := range allAlgorithms() {
		s := streamOfMSS(1000, 0)
		before := s.Cwnd
		alg.OnRTT(&s, 0.03)
		if s.Cwnd != 2*before {
			t.Errorf("%s: slow start Cwnd = %v, want %v", alg.Name(), s.Cwnd, 2*before)
		}
	}
}

func TestSlowStartExitsAtSsthresh(t *testing.T) {
	for _, alg := range allAlgorithms() {
		s := streamOfMSS(1000, 0)
		s.Ssthresh = 15000
		alg.OnRTT(&s, 0.03) // 10000 -> 20000, clipped to 15000
		if s.SlowStart {
			t.Errorf("%s: still in slow start past ssthresh", alg.Name())
		}
		if s.Cwnd != 15000 {
			t.Errorf("%s: Cwnd = %v, want 15000", alg.Name(), s.Cwnd)
		}
	}
}

func TestLossReducesWindow(t *testing.T) {
	for _, alg := range allAlgorithms() {
		s := streamOfMSS(1000, 0)
		s.SlowStart = false
		s.Cwnd = 1e6
		alg.OnLoss(&s)
		if s.Cwnd >= 1e6 {
			t.Errorf("%s: loss did not reduce Cwnd (%v)", alg.Name(), s.Cwnd)
		}
		if s.Cwnd < s.MSS {
			t.Errorf("%s: Cwnd = %v below one MSS", alg.Name(), s.Cwnd)
		}
		if s.Losses != 1 {
			t.Errorf("%s: Losses = %d, want 1", alg.Name(), s.Losses)
		}
		if s.SinceLoss != 0 {
			t.Errorf("%s: SinceLoss = %v, want 0", alg.Name(), s.SinceLoss)
		}
	}
}

func TestGrowthMonotoneInCongestionAvoidance(t *testing.T) {
	for _, alg := range allAlgorithms() {
		s := streamOfMSS(1000, 0)
		s.SlowStart = false
		s.Cwnd = 50000
		s.WMax = 100000
		prev := s.Cwnd
		for i := 0; i < 100; i++ {
			s.SinceLoss += 0.03
			alg.OnRTT(&s, 0.03)
			if s.Cwnd < prev {
				t.Errorf("%s: window shrank without loss: %v -> %v", alg.Name(), prev, s.Cwnd)
				break
			}
			prev = s.Cwnd
		}
	}
}

func TestWindowRespectsCapProperty(t *testing.T) {
	for _, alg := range allAlgorithms() {
		alg := alg
		f := func(growRTTs uint8) bool {
			s := streamOfMSS(1000, 64000)
			for i := 0; i < int(growRTTs); i++ {
				s.SinceLoss += 0.03
				alg.OnRTT(&s, 0.03)
				if s.Cwnd > 64000 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", alg.Name(), err)
		}
	}
}

func TestRenoHalves(t *testing.T) {
	r := NewReno()
	s := streamOfMSS(1000, 0)
	s.SlowStart = false
	s.Cwnd = 80000
	r.OnLoss(&s)
	if s.Cwnd != 40000 {
		t.Fatalf("Reno loss: Cwnd = %v, want 40000", s.Cwnd)
	}
	s.Cwnd = 40000
	r.OnRTT(&s, 0.01)
	if s.Cwnd != 41000 {
		t.Fatalf("Reno growth: Cwnd = %v, want 41000", s.Cwnd)
	}
}

func TestCUBICDecreaseFactor(t *testing.T) {
	c := NewCUBIC()
	s := streamOfMSS(1000, 0)
	s.SlowStart = false
	s.Cwnd = 100000
	c.OnLoss(&s)
	if math.Abs(s.Cwnd-70000) > 1e-9 {
		t.Fatalf("CUBIC loss: Cwnd = %v, want 70000", s.Cwnd)
	}
	if s.WMax != 100000 {
		t.Fatalf("CUBIC loss: WMax = %v, want 100000", s.WMax)
	}
}

func TestCUBICConcaveRecoveryTowardsWMax(t *testing.T) {
	// After a loss CUBIC should approach its prior WMax and plateau
	// near it before probing beyond.
	c := NewCUBIC()
	s := NewStream(0)
	s.SlowStart = false
	s.Cwnd = 100 * s.MSS
	c.OnLoss(&s)
	rtt := 0.03
	var atWMax float64 = -1
	for i := 0; i < 2000; i++ {
		s.SinceLoss += rtt
		c.OnRTT(&s, rtt)
		if atWMax < 0 && s.Cwnd >= s.WMax {
			atWMax = s.SinceLoss
		}
	}
	if atWMax < 0 {
		t.Fatal("CUBIC never recovered to WMax")
	}
	// K = cbrt(100 * 0.3 / 0.4) ~ 4.2 s; recovery should land in the
	// right ballpark.
	if atWMax > 10 {
		t.Fatalf("CUBIC recovery took %v s, expected a few seconds", atWMax)
	}
}

func TestHTCPAlphaRegimes(t *testing.T) {
	h := NewHTCP()
	if a := h.alpha(0.5); a != 1 {
		t.Fatalf("alpha(0.5) = %v, want 1 (low-speed regime)", a)
	}
	if a := h.alpha(1.0); a != 1 {
		t.Fatalf("alpha(1.0) = %v, want 1", a)
	}
	// alpha(2) = 1 + 10*1 + 0.25*1 = 11.25
	if a := h.alpha(2.0); math.Abs(a-11.25) > 1e-9 {
		t.Fatalf("alpha(2.0) = %v, want 11.25", a)
	}
	// Quadratic growth: alpha must be increasing in delta.
	prev := 0.0
	for d := 0.0; d < 10; d += 0.1 {
		a := h.alpha(d)
		if a < prev {
			t.Fatalf("alpha not monotone at delta=%v", d)
		}
		prev = a
	}
}

func TestHTCPAdaptiveBackoff(t *testing.T) {
	h := NewHTCP()
	s := streamOfMSS(1000, 0)
	s.SlowStart = false
	s.Cwnd = 100000
	// No RTT info: uses BetaMax.
	h.OnLoss(&s)
	if math.Abs(s.Cwnd-80000) > 1e-9 {
		t.Fatalf("no-RTT backoff: Cwnd = %v, want 80000", s.Cwnd)
	}
	// Strong queueing (min/max = 0.25) clamps to BetaMin.
	s.Cwnd = 100000
	s.MinRTT, s.MaxRTT = 0.01, 0.04
	h.OnLoss(&s)
	if math.Abs(s.Cwnd-50000) > 1e-9 {
		t.Fatalf("clamped backoff: Cwnd = %v, want 50000", s.Cwnd)
	}
	// Mild queueing uses the ratio directly.
	s.Cwnd = 100000
	s.MinRTT, s.MaxRTT = 0.03, 0.05
	h.OnLoss(&s)
	if math.Abs(s.Cwnd-60000) > 1e-9 {
		t.Fatalf("ratio backoff: Cwnd = %v, want 60000", s.Cwnd)
	}
}

func TestHTCPFasterThanRenoAfterDeltaL(t *testing.T) {
	h, r := NewHTCP(), NewReno()
	hs := streamOfMSS(1000, 0)
	rs := streamOfMSS(1000, 0)
	for _, s := range []*Stream{&hs, &rs} {
		s.SlowStart = false
		s.Cwnd = 10000
		s.SinceLoss = 5 // well past DeltaL
	}
	h.OnRTT(&hs, 0.03)
	r.OnRTT(&rs, 0.03)
	if hs.Cwnd <= rs.Cwnd {
		t.Fatalf("H-TCP (%v) not faster than Reno (%v) at delta=5s", hs.Cwnd, rs.Cwnd)
	}
}

func TestScalableMultiplicativeIncrease(t *testing.T) {
	sc := NewScalable()
	s := streamOfMSS(1000, 0)
	s.SlowStart = false
	s.Cwnd = 1e6
	sc.OnRTT(&s, 0.03)
	if math.Abs(s.Cwnd-1.01e6) > 1 {
		t.Fatalf("Scalable growth: Cwnd = %v, want 1.01e6", s.Cwnd)
	}
	sc.OnLoss(&s)
	if math.Abs(s.Cwnd-1.01e6*0.875) > 1 {
		t.Fatalf("Scalable loss: Cwnd = %v, want %v", s.Cwnd, 1.01e6*0.875)
	}
}

func TestScalableSmallWindowFloor(t *testing.T) {
	// At tiny windows the 1% increase is below one MSS; growth must
	// not stall.
	sc := NewScalable()
	s := streamOfMSS(1000, 0)
	s.SlowStart = false
	s.Cwnd = 2000
	sc.OnRTT(&s, 0.03)
	if s.Cwnd < 3000 {
		t.Fatalf("Scalable small-window growth: Cwnd = %v, want >= 3000", s.Cwnd)
	}
}

func TestByName(t *testing.T) {
	for _, name := range algorithmNames {
		alg, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if alg.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, alg.Name())
		}
	}
	if _, err := ByName("bbr"); err == nil {
		t.Fatal("ByName(bbr) succeeded, want error")
	}
}

func TestObserveRTT(t *testing.T) {
	s := streamOfMSS(1000, 0)
	s.ObserveRTT(0.03)
	s.ObserveRTT(0.05)
	s.ObserveRTT(0.02)
	s.ObserveRTT(0) // ignored
	if s.MinRTT != 0.02 || s.MaxRTT != 0.05 {
		t.Fatalf("min/max = %v/%v, want 0.02/0.05", s.MinRTT, s.MaxRTT)
	}
}

func TestLossNeverBelowOneMSS(t *testing.T) {
	for _, alg := range allAlgorithms() {
		alg := alg
		f := func(nLosses uint8) bool {
			s := streamOfMSS(1000, 0)
			s.SlowStart = false
			for i := 0; i < int(nLosses); i++ {
				alg.OnLoss(&s)
				if s.Cwnd < s.MSS {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", alg.Name(), err)
		}
	}
}

// TestOnRTTFixedAtCap pins the contract internal/netem's substep stands
// on: for every algorithm, a window at MaxCwnd comes back from OnRTT
// bit-identical, with the rest of the stream, in every state a stream at
// the cap can be in — slow start, after a loss, with CUBIC's WMax above
// and below the cap, and with the time since the loss anywhere from zero
// to far past H-TCP's DeltaL — and at any RTT.
func TestOnRTTFixedAtCap(t *testing.T) {
	const maxCwnd = 4 << 20
	for _, name := range algorithmNames {
		alg, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		slowStart := NewStream(maxCwnd)
		slowStart.Cwnd = maxCwnd
		if !slowStart.SlowStart || !math.IsInf(slowStart.Ssthresh, 1) {
			t.Fatalf("%s: a new stream is not in slow start with Ssthresh +Inf", name)
		}
		afterLoss := slowStart
		alg.OnLoss(&afterLoss)
		afterLoss.Cwnd = maxCwnd
		wmaxAbove, wmaxBelow := afterLoss, afterLoss
		wmaxAbove.WMax, wmaxBelow.WMax = 3*maxCwnd, maxCwnd/3
		for _, st := range []struct {
			what string
			s    Stream
		}{
			{"slow start", slowStart},
			{"after a loss", afterLoss},
			{"WMax above the cap", wmaxAbove},
			{"WMax below the cap", wmaxBelow},
		} {
			for _, since := range []float64{0, 0.012, 0.9, 1.5, 30, 1e4} {
				for _, rtt := range []float64{0.001, 0.012, 0.033, 0.3} {
					want := st.s
					want.SinceLoss = since
					got := want
					alg.OnRTT(&got, rtt)
					if math.Float64bits(got.Cwnd) != math.Float64bits(maxCwnd) || got != want {
						t.Errorf("%s, %s, %v s since the loss, RTT %v: OnRTT moved the stream at the cap: %+v, want %+v",
							name, st.what, since, rtt, got, want)
					}
				}
			}
		}
	}
}

// algorithmNames lists every name ByName knows.
var algorithmNames = []string{"reno", "cubic", "htcp", "scalable"}
