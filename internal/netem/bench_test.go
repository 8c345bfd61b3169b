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

// TestStepAllocs holds the simulator's innermost loop to its budget,
// exactly: a virtual step of a path allocates nothing, at any stream
// count the figures reach and with many flows.
func TestStepAllocs(t *testing.T) {
	for _, tc := range []struct {
		name           string
		flows, streams int
	}{
		{"16 streams", 1, 16},
		{"128 streams", 1, 128},
		{"512 streams", 1, 512},
		{"64 flows", 64, 1},
	} {
		p, f := stepPath(1, tc.flows, tc.streams)
		if n := testing.AllocsPerRun(200, func() { p.Step(0.1) }); n != 0 {
			t.Errorf("%s: Path.Step allocates %v times a step, want 0", tc.name, n)
		}
		if f.Delivered() <= 0 {
			t.Errorf("%s: no progress", tc.name)
		}
	}
}
