package netem

import (
	"testing"

	"dstune/internal/sim"
	"dstune/internal/tcpmodel"
)

// stepConfig is a 5 GB/s, 12 ms path.
var stepConfig = Config{Capacity: 5e9, BaseRTT: 0.012, RandomLoss: 5e-6, MaxCwnd: 4 << 20}

// stepPath returns a stepConfig path carrying flows H-TCP flows of
// streams streams each, and the first of them.
func stepPath(seed uint64, flows, streams int) (*Path, *Flow) {
	p := New(stepConfig, sim.NewRNG(seed))
	first := p.NewFlow(streams, tcpmodel.NewHTCP())
	for i := 1; i < flows; i++ {
		p.NewFlow(streams, tcpmodel.NewHTCP())
	}
	return p, first
}

// benchPath advances a path with n streams for b.N steps of 100 ms.
func benchPath(b *testing.B, n int) {
	b.Helper()
	p, f := stepPath(1, 1, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step(0.1)
	}
	if f.Delivered() <= 0 {
		b.Fatal("no progress")
	}
	b.ReportMetric(float64(n)*float64(b.N), "stream-steps")
}

func BenchmarkPathStep16Streams(b *testing.B)  { benchPath(b, 16) }
func BenchmarkPathStep128Streams(b *testing.B) { benchPath(b, 128) }
func BenchmarkPathStep512Streams(b *testing.B) { benchPath(b, 512) }

// BenchmarkPathStepManyFlows exercises the multi-flow bookkeeping: 64
// single-stream flows (the ext.tfr=64 shape).
func BenchmarkPathStepManyFlows(b *testing.B) {
	p, _ := stepPath(2, 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step(0.1)
	}
}

// mixCap is the rate cap of each flow of the figure mix: the endpoint
// scheduler's share of a loaded host per transfer process. It leaves
// about three windows in four at the cap, near the tuned figure set's
// four in five.
const mixCap = 1e8

// countingAlg is a tcpmodel.Algorithm that counts stream touches: the
// round trips it takes (OnRTT) and the closed forms it gives (Grow).
type countingAlg struct {
	tcpmodel.Algorithm
	touches *int
}

func (a countingAlg) OnRTT(s *tcpmodel.Stream, rtt float64) {
	*a.touches++
	a.Algorithm.OnRTT(s, rtt)
}

func (a countingAlg) Grow(s *tcpmodel.Stream, rtt float64) tcpmodel.Growth {
	*a.touches++
	return a.Algorithm.Grow(s, rtt)
}

// figureMix returns the traffic the tuned figure set puts on a path —
// 24 H-TCP flows of 3 streams on the 12 ms path, each capped at mixCap
// — past slow start (10 s of virtual time stepped), the first flow, and
// the count of its stream touches.
func figureMix() (*Path, *Flow, *int) {
	touches := new(int)
	p := New(stepConfig, sim.NewRNG(3))
	for i := 0; i < 24; i++ {
		p.NewFlow(3, countingAlg{tcpmodel.NewHTCP(), touches}).SetCap(mixCap)
	}
	for i := 0; i < 100; i++ {
		p.Step(0.1)
	}
	return p, p.flows[0], touches
}

// BenchmarkPathStepFigureMix steps the figure mix in Steps of 100 ms,
// and reports its stream touches per virtual second (touches/vsec).
func BenchmarkPathStepFigureMix(b *testing.B) {
	p, f, touches := figureMix()
	*touches = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step(0.1)
	}
	if f.Delivered() <= 0 {
		b.Fatal("no progress")
	}
	b.ReportMetric(float64(*touches)/(0.1*float64(b.N)), "touches/vsec")
}

// pinnedCap is the rate cap of each flow of BenchmarkPathStepPinned: a
// little under the share of a 5 GB/s NIC each of Figure 5(e)'s 68
// processes gets. Every window is well above it once slow start ends.
const pinnedCap = 7e7

// BenchmarkPathStepPinned steps Figure 5(e)'s mix — 64 single-stream
// external flows beside a transfer's 4 flows of 4 streams on the 12 ms
// path, each capped below its windows — past slow start (10 s stepped),
// in Steps of 100 ms. Nearly every flow-Step is a flow pinned at its cap.
func BenchmarkPathStepPinned(b *testing.B) {
	p := New(stepConfig, sim.NewRNG(4))
	for _, n := range append(repeat(64, 1), 4, 4, 4, 4) {
		p.NewFlow(n, tcpmodel.NewHTCP()).SetCap(pinnedCap)
	}
	for i := 0; i < 100; i++ {
		p.Step(0.1)
	}
	f := p.flows[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step(0.1)
	}
	if f.Delivered() <= 0 {
		b.Fatal("no progress")
	}
}

// figureMixTouches is the budget of stream touches (OnRTT calls and
// Grow calls) a virtual second of the figure mix may take. Its 72
// streams take 17 a second: a closed form where a loss's cool-down ends
// and another where H-TCP's low-speed second does. The walk round trip
// by round trip that calm Steps were took 1 342.
const figureMixTouches = 60

// TestFigureMixTouches holds the calm Step to touching a stream only at
// its events: 60 virtual seconds of the figure mix, every Step calm,
// take at most figureMixTouches stream touches a second.
func TestFigureMixTouches(t *testing.T) {
	p, _, touches := figureMix()
	*touches = 0
	const steps = 600
	for i := 0; i < steps; i++ {
		if !p.begin() {
			t.Fatalf("step %d was not calm", i)
		}
		p.Step(0.1)
	}
	perSec := float64(*touches) / (0.1 * steps)
	t.Logf("%.0f stream touches a virtual second", perSec)
	if perSec > figureMixTouches {
		t.Errorf("%.0f stream touches a virtual second, budget %d", perSec, figureMixTouches)
	}
}

// TestStepAllocs holds the simulator's innermost loop to its budget,
// exactly: a virtual step of a path allocates nothing, at any stream
// count the figures reach, with many flows, and in the figures' mix.
func TestStepAllocs(t *testing.T) {
	for _, tc := range []struct {
		name           string
		flows, streams int
		cap            float64 // on every flow
	}{
		{"16 streams", 1, 16, 0},
		{"128 streams", 1, 128, 0},
		{"512 streams", 1, 512, 0},
		{"64 flows", 64, 1, 0},
		{"figure mix", 24, 3, mixCap},
	} {
		p, f := stepPath(1, tc.flows, tc.streams)
		for _, g := range p.flows {
			g.SetCap(tc.cap)
		}
		if n := testing.AllocsPerRun(200, func() { p.Step(0.1) }); n != 0 {
			t.Errorf("%s: Path.Step allocates %v times a step, want 0", tc.name, n)
		}
		if f.Delivered() <= 0 {
			t.Errorf("%s: no progress", tc.name)
		}
	}
}
