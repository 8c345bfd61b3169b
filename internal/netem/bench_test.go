package netem

import (
	"testing"

	"dstune/internal/sim"
	"dstune/internal/tcpmodel"
)

// stepPath returns a 5 GB/s, 12 ms path carrying flows H-TCP flows of
// streams streams each, and the first of them.
func stepPath(seed uint64, flows, streams int) (*Path, *Flow) {
	p := New(Config{
		Capacity:   5e9,
		BaseRTT:    0.012,
		RandomLoss: 5e-6,
		MaxCwnd:    4 << 20,
	}, sim.NewRNG(seed))
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

// BenchmarkPathStepFigureMix steps the traffic the tuned figure set
// puts on a path: 24 H-TCP flows of 3 streams on the 12 ms path, each
// capped at mixCap, past slow start (10 s of virtual time before the
// timer starts).
func BenchmarkPathStepFigureMix(b *testing.B) {
	p, f := stepPath(3, 24, 3)
	for _, g := range p.flows {
		g.SetCap(mixCap)
	}
	for i := 0; i < 100; i++ {
		p.Step(0.1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step(0.1)
	}
	if f.Delivered() <= 0 {
		b.Fatal("no progress")
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
