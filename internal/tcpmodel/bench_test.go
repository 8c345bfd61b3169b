package tcpmodel

import "testing"

// rttsAndLoss drives alg over one stream: n per-RTT updates with a loss
// every 256th, the closed form taken after each loss and each 64th RTT.
func rttsAndLoss(alg Algorithm, s *Stream, n int) {
	for i := 0; i < n; i++ {
		s.SinceLoss += 0.012
		alg.OnRTT(s, 0.012)
		if i%64 == 63 {
			alg.Grow(s, 0.012)
		}
		if i%256 == 255 {
			alg.OnLoss(s)
			alg.Grow(s, 0.012)
		}
	}
}

// benchAlg measures the per-RTT update plus an occasional loss.
func benchAlg(b *testing.B, alg Algorithm) {
	b.Helper()
	s := NewStream(4 << 20)
	s.SlowStart = false
	b.ResetTimer()
	rttsAndLoss(alg, &s, b.N)
}

func BenchmarkReno(b *testing.B)     { benchAlg(b, NewReno()) }
func BenchmarkCUBIC(b *testing.B)    { benchAlg(b, NewCUBIC()) }
func BenchmarkHTCP(b *testing.B)     { benchAlg(b, NewHTCP()) }
func BenchmarkScalable(b *testing.B) { benchAlg(b, NewScalable()) }

// TestAlgorithmAllocs: the window update every simulated stream runs
// every RTT, its closed form, and the loss response, allocate nothing in
// any model.
func TestAlgorithmAllocs(t *testing.T) {
	for _, name := range algorithmNames {
		alg, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s := NewStream(4 << 20)
		s.SlowStart = false
		if n := testing.AllocsPerRun(10, func() { rttsAndLoss(alg, &s, 512) }); n != 0 {
			t.Errorf("%s: %v allocs per 512 RTTs, 10 closed forms and 2 losses, want 0", name, n)
		}
	}
}
