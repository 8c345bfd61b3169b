package netem

import (
	"math"
	"testing"

	"dstune/internal/sim"
	"dstune/internal/tcpmodel"
)

// testConfig is a 10 Gb/s, 30 ms path with mild random loss — enough
// that one stream cannot saturate it.
func testConfig() Config {
	return Config{
		Capacity:   1.25e9, // 10 Gb/s
		BaseRTT:    0.03,
		RandomLoss: 1e-5,
		MaxCwnd:    8 << 20,
	}
}

// run advances the path for d virtual seconds and returns the mean
// delivered rate of flow f over the last half of the run.
func run(p *Path, f *Flow, d float64) float64 {
	const dt = 0.05
	steps := int(d / dt)
	half := steps / 2
	var before float64
	for i := 0; i < steps; i++ {
		if i == half {
			before = f.Delivered()
		}
		p.Step(dt)
	}
	return (f.Delivered() - before) / (d - float64(half)*dt)
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid", testConfig(), true},
		{"zero capacity", Config{BaseRTT: 0.01}, false},
		{"zero rtt", Config{Capacity: 1e9}, false},
		{"negative loss", Config{Capacity: 1e9, BaseRTT: 0.01, RandomLoss: -1}, false},
		{"loss one", Config{Capacity: 1e9, BaseRTT: 0.01, RandomLoss: 1}, false},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config did not panic")
		}
	}()
	New(Config{}, sim.NewRNG(1))
}

func TestSingleStreamUnderCapacity(t *testing.T) {
	p := New(testConfig(), sim.NewRNG(1))
	f := p.NewFlow(1, tcpmodel.NewHTCP())
	rate := run(p, f, 120)
	if rate <= 0 {
		t.Fatal("single stream delivered nothing")
	}
	// With random loss and a window cap, one stream must be well
	// below capacity — this is the premise of the whole paper.
	if rate > 0.6*p.cfg.Capacity {
		t.Fatalf("single stream rate %v too close to capacity %v", rate, p.cfg.Capacity)
	}
}

func TestMoreStreamsMoreThroughput(t *testing.T) {
	rates := map[int]float64{}
	for _, n := range []int{1, 4, 16, 64} {
		p := New(testConfig(), sim.NewRNG(7))
		f := p.NewFlow(n, tcpmodel.NewHTCP())
		rates[n] = run(p, f, 120)
	}
	if !(rates[4] > rates[1] && rates[16] > rates[4]) {
		t.Fatalf("throughput not increasing with streams: %v", rates)
	}
	// Many streams should get close to capacity.
	if rates[64] < 0.8*testConfig().Capacity {
		t.Fatalf("64 streams reached only %v of %v", rates[64], testConfig().Capacity)
	}
}

func TestProportionalSharing(t *testing.T) {
	// A 48-stream flow against a 16-stream flow should take roughly
	// 3x the bandwidth once both saturate the bottleneck.
	p := New(testConfig(), sim.NewRNG(3))
	big := p.NewFlow(48, tcpmodel.NewHTCP())
	small := p.NewFlow(16, tcpmodel.NewHTCP())
	const dt = 0.05
	for i := 0; i < int(240/dt); i++ {
		p.Step(dt)
	}
	b0, s0 := big.Delivered(), small.Delivered()
	for i := 0; i < int(120/dt); i++ {
		p.Step(dt)
	}
	bRate := big.Delivered() - b0
	sRate := small.Delivered() - s0
	ratio := bRate / sRate
	if ratio < 1.8 || ratio > 5 {
		t.Fatalf("48:16 stream share ratio = %v, want roughly 3", ratio)
	}
}

func TestFlowCapRespected(t *testing.T) {
	p := New(testConfig(), sim.NewRNG(5))
	f := p.NewFlow(32, tcpmodel.NewHTCP())
	f.SetCap(1e8)
	rate := run(p, f, 60)
	if rate > 1.02e8 {
		t.Fatalf("delivered %v exceeds cap 1e8", rate)
	}
	if rate < 0.8e8 {
		t.Fatalf("delivered %v far below a cap the flow should reach", rate)
	}
}

func TestSetCapNegativeBlocksFlow(t *testing.T) {
	p := New(testConfig(), sim.NewRNG(5))
	f := p.NewFlow(4, tcpmodel.NewHTCP())
	f.SetCap(-1)
	if f.cap >= 0 {
		t.Fatal("flow not blocked")
	}
	for i := 0; i < 200; i++ {
		p.Step(0.05)
	}
	if f.Delivered() != 0 {
		t.Fatalf("blocked flow delivered %v bytes", f.Delivered())
	}
	// Unblocking resumes delivery.
	f.SetCap(0)
	for i := 0; i < 200; i++ {
		p.Step(0.05)
	}
	if f.Delivered() == 0 {
		t.Fatal("unblocked flow still not delivering")
	}
}

func TestCongestionBuildsQueueAndRTT(t *testing.T) {
	cfg := testConfig()
	cfg.RandomLoss = 0 // force congestion as the only signal
	p := New(cfg, sim.NewRNG(9))
	p.NewFlow(64, tcpmodel.NewHTCP())
	base := p.RTT()
	sawCongestion := false
	sawQueue := false
	for i := 0; i < 4000; i++ {
		p.Step(0.05)
		if bufferFull(p) {
			sawCongestion = true
		}
		if p.queue > 0 {
			sawQueue = true
		}
	}
	if !sawQueue {
		t.Fatal("queue never grew under 64 streams with no random loss")
	}
	if !sawCongestion {
		t.Fatal("buffer never filled under 64 streams with no random loss")
	}
	if p.RTT() < base {
		t.Fatalf("effective RTT %v below base %v", p.RTT(), base)
	}
}

func TestAggregateNeverExceedsCapacity(t *testing.T) {
	p := New(testConfig(), sim.NewRNG(11))
	p.NewFlow(128, tcpmodel.NewScalable())
	for i := 0; i < 2000; i++ {
		p.Step(0.05)
		if u := deliveredRate(p) / p.cfg.Capacity; u > 1.0001 {
			t.Fatalf("step %d: utilization %v > 1", i, u)
		}
	}
}

// deliveredRate is the path's aggregate delivered rate over its last
// Step: after a Step each flow's rate is the rate it delivered.
func deliveredRate(p *Path) float64 {
	total := 0.0
	for _, f := range p.flows {
		total += f.rate
	}
	return total
}

// bufferFull reports whether the path's last Step filled the buffer: a
// congested Step holds the queue at the buffer's size, any other leaves
// it below.
func bufferFull(p *Path) bool { return p.queue >= p.buffer }

func TestRemoveFlow(t *testing.T) {
	p := New(testConfig(), sim.NewRNG(13))
	a := p.NewFlow(4, tcpmodel.NewHTCP())
	b := p.NewFlow(4, tcpmodel.NewHTCP())
	if len(p.flows) != 2 {
		t.Fatalf("%d flows, want 2", len(p.flows))
	}
	a.Remove()
	a.Remove() // idempotent
	if len(p.flows) != 1 {
		t.Fatalf("%d flows after remove, want 1", len(p.flows))
	}
	before := a.Delivered()
	for i := 0; i < 100; i++ {
		p.Step(0.05)
	}
	if a.Delivered() != before {
		t.Fatal("removed flow still accumulating bytes")
	}
	if b.Delivered() == 0 {
		t.Fatal("remaining flow made no progress")
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() float64 {
		p := New(testConfig(), sim.NewRNG(21))
		f := p.NewFlow(8, tcpmodel.NewHTCP())
		for i := 0; i < 2000; i++ {
			p.Step(0.05)
		}
		return f.Delivered()
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Fatalf("same seed, different results: %v vs %v", a, b)
	}
}

func TestSeedsDiffer(t *testing.T) {
	runOnce := func(seed uint64) float64 {
		p := New(testConfig(), sim.NewRNG(seed))
		f := p.NewFlow(8, tcpmodel.NewHTCP())
		for i := 0; i < 2000; i++ {
			p.Step(0.05)
		}
		return f.Delivered()
	}
	if runOnce(1) == runOnce(2) {
		t.Fatal("different seeds produced identical byte counts")
	}
}

func TestStepZeroDTNoop(t *testing.T) {
	p := New(testConfig(), sim.NewRNG(1))
	f := p.NewFlow(2, tcpmodel.NewHTCP())
	p.Step(0)
	p.Step(-1)
	if f.Delivered() != 0 {
		t.Fatal("zero/negative dt delivered bytes")
	}
}

func TestOfferedRateReported(t *testing.T) {
	p := New(testConfig(), sim.NewRNG(1))
	f := p.NewFlow(4, tcpmodel.NewHTCP())
	f.SetCap(1e6)
	for i := 0; i < 1000; i++ {
		p.Step(0.05)
	}
	if f.OfferedRate() <= f.cap {
		t.Fatalf("offered %v should exceed the binding cap %v", f.OfferedRate(), f.cap)
	}
	if f.rate > f.cap*1.01 {
		t.Fatalf("delivered %v exceeds cap %v", f.rate, f.cap)
	}
}

func TestLossesAccumulate(t *testing.T) {
	p := New(testConfig(), sim.NewRNG(17))
	f := p.NewFlow(16, tcpmodel.NewHTCP())
	run(p, f, 120)
	if losses(f) == 0 {
		t.Fatal("no losses over 120s on a lossy path")
	}
}

func TestNewFlowMinimumOneStream(t *testing.T) {
	p := New(testConfig(), sim.NewRNG(1))
	f := p.NewFlow(0, tcpmodel.NewHTCP())
	if f.Streams() != 1 {
		t.Fatalf("Streams() = %d, want 1", f.Streams())
	}
}

func TestShortRTTPathSaturatesWithFewStreams(t *testing.T) {
	// On a short, clean path a handful of streams should reach most
	// of the capacity (the paper's <20ms dedicated-link observation).
	cfg := Config{
		Capacity:   1.25e9,
		BaseRTT:    0.002,
		RandomLoss: 1e-7,
		MaxCwnd:    8 << 20,
	}
	p := New(cfg, sim.NewRNG(2))
	f := p.NewFlow(4, tcpmodel.NewHTCP())
	rate := run(p, f, 60)
	if rate < 0.85*cfg.Capacity {
		t.Fatalf("4 streams on a clean 2ms path reached only %v of %v", rate, cfg.Capacity)
	}
}

func TestUtilizationFinite(t *testing.T) {
	p := New(testConfig(), sim.NewRNG(1))
	p.NewFlow(8, tcpmodel.NewCUBIC())
	for i := 0; i < 1000; i++ {
		p.Step(0.05)
		if u := deliveredRate(p) / p.cfg.Capacity; math.IsNaN(u) || math.IsInf(u, 0) {
			t.Fatalf("step %d: utilization not finite", i)
		}
	}
}

// losses returns the congestion events across f's streams.
func losses(f *Flow) uint64 {
	var n uint64
	for i := range f.strs {
		n += f.strs[i].tcp.Losses
	}
	return n
}
