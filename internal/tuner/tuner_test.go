package tuner

import (
	"context"
	"errors"
	"math"
	"testing"

	"dstune/internal/directsearch"
	"dstune/internal/xfer"
)

// fake is a synthetic Transferer whose throughput is a pure function
// of the parameters and the transfer clock — fast and noise-free, so
// tuner trajectories are exactly predictable.
type fake struct {
	now       float64
	remaining float64
	g         func(p xfer.Params, now float64) float64
	stopped   bool
	runs      int
	failAfter int // inject an error on run number failAfter (1-based)
}

func (f *fake) Run(ctx context.Context, p xfer.Params, epoch float64) (xfer.Report, error) {
	if f.stopped {
		return xfer.Report{}, xfer.ErrStopped
	}
	f.runs++
	if f.failAfter > 0 && f.runs >= f.failAfter {
		return xfer.Report{}, errors.New("injected failure")
	}
	tput := f.g(p, f.now)
	bytes := tput * epoch
	if bytes > f.remaining {
		bytes = f.remaining
	}
	start := f.now
	f.now += epoch
	f.remaining -= bytes
	return xfer.Report{
		Params:     p,
		Start:      start,
		End:        f.now,
		Bytes:      bytes,
		Throughput: bytes / epoch,
		BestCase:   bytes / epoch,
		Done:       f.remaining <= 0,
	}, nil
}

func (f *fake) Remaining() float64 { return f.remaining }
func (f *fake) Now() float64       { return f.now }
func (f *fake) Stop()              { f.stopped = true }

// peaked returns a time-invariant objective that rises 100 MB/s per
// unit of nc up to the peak and falls 80 MB/s per unit beyond it —
// steep enough that a 5% tolerance keeps the tuners moving.
func peaked(peak int) func(p xfer.Params, now float64) float64 {
	return func(p xfer.Params, _ float64) float64 {
		nc := p.NC
		if nc <= peak {
			return float64(nc) * 100e6
		}
		return float64(peak)*100e6 - float64(nc-peak)*80e6
	}
}

// shifting moves the peak (and scale) at t=shiftAt so the monitors
// have a significant change to detect.
func shifting(peak1, peak2 int, shiftAt float64) func(p xfer.Params, now float64) float64 {
	a, b := peaked(peak1), peaked(peak2)
	return func(p xfer.Params, now float64) float64 {
		if now < shiftAt {
			return a(p, now)
		}
		return b(p, now) * 2
	}
}

// cfg1D tunes nc in [1, 128] with np fixed at 8, short epochs.
func cfg1D(budget float64) Config {
	return Config{
		Epoch:  10,
		Box:    directsearch.MustBox([]int{1}, []int{128}),
		Start:  []int{2},
		Map:    MapNC(8),
		Budget: budget,
		Seed:   1,
	}
}

func newFake(g func(xfer.Params, float64) float64) *fake {
	return &fake{remaining: 1e18, g: g}
}

// allTuners names the paper's tuners and baselines.
var allTuners = []string{"cd-tuner", "cs-tuner", "nm-tuner", "heur1", "heur2", "default"}

func TestConfigValidation(t *testing.T) {
	good := cfg1D(100)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.Box = directsearch.Box{}
	if bad.Validate() == nil {
		t.Fatal("missing box accepted")
	}
	bad = good
	bad.Start = []int{1, 2}
	if bad.Validate() == nil {
		t.Fatal("dim mismatch accepted")
	}
	bad = good
	bad.Map = nil
	if bad.Validate() == nil {
		t.Fatal("missing map accepted")
	}
	bad = good
	bad.Budget = -1
	if bad.Validate() == nil {
		t.Fatal("negative budget accepted")
	}
}

func TestTuneRejectsBadConfig(t *testing.T) {
	for _, name := range allTuners {
		if _, err := Run(context.Background(), name, Config{}, newFake(peaked(10))); err == nil {
			t.Errorf("%s: bad config accepted", name)
		}
	}
}

func TestNames(t *testing.T) {
	for _, name := range append([]string{"model"}, allTuners...) {
		s, err := NewStrategy(name, cfg1D(10))
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != name {
			t.Errorf("NewStrategy(%q) reports name %q", name, s.Name())
		}
	}
}

func TestStaticHoldsParams(t *testing.T) {
	f := newFake(peaked(10))
	tr, err := Run(context.Background(), "default", cfg1D(100), f)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Results) != 10 {
		t.Fatalf("epochs = %d, want 10 (budget 100 / epoch 10)", len(tr.Results))
	}
	for _, r := range tr.Results {
		if r.X[0] != 2 {
			t.Fatalf("static moved to %v", r.X)
		}
		if r.Report.Params != (xfer.Params{NC: 2, NP: 8}) {
			t.Fatalf("static params %v", r.Report.Params)
		}
	}
	if !f.stopped {
		t.Fatal("Tune did not stop the transfer")
	}
}

func TestBudgetRespected(t *testing.T) {
	for _, name := range allTuners {
		f := newFake(peaked(10))
		tr, err := Run(context.Background(), name, cfg1D(120), f)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := len(tr.Results); got != 12 {
			t.Errorf("%s: %d epochs, want 12", name, got)
		}
		if !f.stopped {
			t.Errorf("%s: transfer not stopped", name)
		}
	}
}

func TestTunersBeatDefaultOnPeakedObjective(t *testing.T) {
	base, err := Run(context.Background(), "default", cfg1D(600), newFake(peaked(20)))
	if err != nil {
		t.Fatal(err)
	}
	baseMean := base.SteadyThroughput(300)
	for _, name := range []string{"cd-tuner", "cs-tuner", "nm-tuner", "heur1", "heur2"} {
		tr, err := Run(context.Background(), name, cfg1D(600), newFake(peaked(20)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := tr.SteadyThroughput(300); got < 3*baseMean {
			t.Errorf("%s: steady %v not >= 3x default %v", name, got, baseMean)
		}
	}
}

func TestCDHoversAtPeak(t *testing.T) {
	tr, err := Run(context.Background(), "cd-tuner", cfg1D(600), newFake(peaked(10)))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Results[20:] {
		if r.X[0] < 8 || r.X[0] > 12 {
			t.Fatalf("epoch %d: nc=%d drifted from peak 10", r.Epoch, r.X[0])
		}
	}
}

func TestSearchTunersConvergeNearPeak(t *testing.T) {
	for _, name := range []string{"cs-tuner", "nm-tuner"} {
		tr, err := Run(context.Background(), name, cfg1D(900), newFake(peaked(40)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		x := tr.FinalX()
		if x[0] < 35 || x[0] > 45 {
			t.Errorf("%s: final nc=%d, want near 40", name, x[0])
		}
	}
}

func TestSearchTunersReadaptAfterShift(t *testing.T) {
	// Peak moves from 10 to 30 (and scale doubles) at t=600; the
	// monitor must notice and re-search.
	for _, name := range []string{"cs-tuner", "nm-tuner"} {
		tr, err := Run(context.Background(), name, cfg1D(1800), newFake(shifting(10, 30, 600)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		x := tr.FinalX()
		if x[0] < 25 || x[0] > 35 {
			t.Errorf("%s: final nc=%d, want near new peak 30", name, x[0])
		}
	}
}

func TestHeur2SettlesAndNeverRetunes(t *testing.T) {
	// Doubling from 2: 4, 8, 16 (worse) -> settle at 8 and hold, even
	// after the landscape shifts.
	tr, err := Run(context.Background(), "heur2", cfg1D(1800), newFake(shifting(10, 30, 600)))
	if err != nil {
		t.Fatal(err)
	}
	settled := tr.FinalX()[0]
	if settled != 8 {
		t.Fatalf("heur2 settled at %d, want 8", settled)
	}
	// Every epoch after settling keeps the same value.
	for _, r := range tr.Results[10:] {
		if r.X[0] != settled {
			t.Fatalf("heur2 moved after settling: epoch %d at %d", r.Epoch, r.X[0])
		}
	}
}

func TestHeur2StartAboveCriticalStaysHigh(t *testing.T) {
	// The paper: started above the critical point, heur2 cannot come
	// back down.
	cfg := cfg1D(600)
	cfg.Start = []int{64}
	tr, err := Run(context.Background(), "heur2", cfg, newFake(peaked(10)))
	if err != nil {
		t.Fatal(err)
	}
	if x := tr.FinalX(); x[0] < 64 {
		t.Fatalf("heur2 decreased from 64 to %d; it has no decrement mechanism", x[0])
	}
}

func TestHeur1ClimbsAdditively(t *testing.T) {
	tr, err := Run(context.Background(), "heur1", cfg1D(600), newFake(peaked(10)))
	if err != nil {
		t.Fatal(err)
	}
	// Additive climb: nc must never jump by more than 1 per epoch.
	prev := tr.Results[0].X[0]
	for _, r := range tr.Results[1:] {
		if d := r.X[0] - prev; d > 1 || d < -1 {
			t.Fatalf("heur1 jumped %d -> %d", prev, r.X[0])
		}
		prev = r.X[0]
	}
	// And it must get near the peak eventually.
	if x := tr.FinalX(); x[0] < 9 || x[0] > 12 {
		t.Fatalf("heur1 final nc=%d, want ~10", x[0])
	}
}

func TestHeur1NeverDecreasesBelowStart(t *testing.T) {
	cfg := cfg1D(600)
	cfg.Start = []int{64}
	tr, err := Run(context.Background(), "heur1", cfg, newFake(peaked(10)))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Results {
		if r.X[0] < 64 {
			t.Fatalf("heur1 decreased to %d", r.X[0])
		}
	}
}

func TestTwoParameterTuning(t *testing.T) {
	// Peak at nc=20; np matters weakly (best at 8, as in the paper
	// where parallelism has minor impact).
	g := func(p xfer.Params, _ float64) float64 {
		base := peaked(20)(xfer.Params{NC: p.NC}, 0)
		pen := float64((p.NP - 8) * (p.NP - 8))
		return base - pen*1e6
	}
	cfg := Config{
		Epoch:  10,
		Box:    directsearch.MustBox([]int{1, 1}, []int{128, 32}),
		Start:  []int{2, 8},
		Map:    MapNCNP(),
		Budget: 2400,
		Seed:   2,
	}
	for _, name := range []string{"cs-tuner", "nm-tuner", "cd-tuner"} {
		tr, err := Run(context.Background(), name, cfg, newFake(g))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		x := tr.FinalX()
		if x[0] < 14 || x[0] > 26 {
			t.Errorf("%s: final nc=%d, want near 20", name, x[0])
		}
	}
}

func TestErrorPropagation(t *testing.T) {
	for _, name := range allTuners {
		f := newFake(peaked(10))
		f.failAfter = 5
		_, err := Run(context.Background(), name, cfg1D(1000), f)
		if err == nil {
			t.Errorf("%s: injected failure not propagated", name)
		}
	}
}

func TestTransferCompletionEndsTuning(t *testing.T) {
	for _, name := range allTuners {
		f := newFake(peaked(10))
		f.remaining = 5e9 // finishes within a few epochs
		tr, err := Run(context.Background(), name, cfg1D(0), f)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		last := tr.Results[len(tr.Results)-1]
		if !last.Report.Done {
			t.Errorf("%s: last epoch not marked done", name)
		}
		if f.remaining > 0 {
			t.Errorf("%s: transfer incomplete", name)
		}
	}
}

func TestTraceAccessors(t *testing.T) {
	f := newFake(peaked(10))
	tr, err := Run(context.Background(), "default", cfg1D(100), f)
	if err != nil {
		t.Fatal(err)
	}
	if s := tr.Throughput(); len(s.Points) != 10 {
		t.Fatalf("throughput series len %d", len(s.Points))
	}
	if s := tr.BestCase(); len(s.Points) != 10 {
		t.Fatalf("bestcase series len %d", len(s.Points))
	}
	if s := tr.Param(0); len(s.Points) != 10 || s.Last().V != 2 {
		t.Fatalf("param series %v", s.Last())
	}
	if len(tr.Param(5).Points) != 0 {
		t.Fatal("out-of-range param dim returned data")
	}
	if tr.MeanThroughput() != 200e6 {
		t.Fatalf("mean throughput %v, want 2e8", tr.MeanThroughput())
	}
	if tr.MeanBestCase() != 200e6 {
		t.Fatalf("mean best case %v", tr.MeanBestCase())
	}
	empty := &Trace{}
	if empty.FinalX() != nil || empty.MeanThroughput() != 0 || empty.SteadyThroughput(0) != 0 {
		t.Fatal("empty trace accessors misbehave")
	}
}

func TestDelta(t *testing.T) {
	if d := delta(100, 110); d != 10 {
		t.Fatalf("delta = %v, want 10", d)
	}
	if d := delta(100, 90); d != -10 {
		t.Fatalf("delta = %v, want -10", d)
	}
	if d := delta(0, 0); d != 0 {
		t.Fatalf("delta(0,0) = %v", d)
	}
	if d := delta(0, 5); d < 1e8 {
		t.Fatalf("delta(0,5) = %v, want huge", d)
	}
}

func TestConvergenceTime(t *testing.T) {
	tr := &Trace{}
	// Ramp: 10 epochs climbing 100..1000, then 10 steady at 1000.
	for i := 0; i < 20; i++ {
		v := 1000.0
		if i < 10 {
			v = float64(i+1) * 100
		}
		tr.add([]int{i}, xfer.Report{
			Start:      float64(i) * 30,
			End:        float64(i+1) * 30,
			Throughput: v,
		})
	}
	// With window 1 and frac 0.9: first epoch at >= 900 is epoch 8
	// (start 240).
	if got := tr.ConvergenceTime(0.9, 1); got != 240 {
		t.Fatalf("ConvergenceTime = %v, want 240", got)
	}
	// Frac 0.1: immediately (epoch 0 mean 100 >= 100).
	if got := tr.ConvergenceTime(0.1, 1); got != 0 {
		t.Fatalf("ConvergenceTime(0.1) = %v, want 0", got)
	}
	// Window longer than the trace: -1.
	if got := tr.ConvergenceTime(0.9, 50); got != -1 {
		t.Fatalf("short trace = %v, want -1", got)
	}
	// Degenerate window clamps to 1.
	if got := tr.ConvergenceTime(0.9, 0); got != 240 {
		t.Fatalf("window 0 = %v, want 240", got)
	}
	// Empty trace.
	if got := (&Trace{}).ConvergenceTime(0.9, 1); got != -1 {
		t.Fatalf("empty trace = %v, want -1", got)
	}
}

// TestFirstWindow pins the critical-point detector the warm-start
// study counts epochs with on a hand-built trace: ramp epochs below the
// steady mean, then a plateau.
func TestFirstWindow(t *testing.T) {
	tr := &Trace{}
	for _, tp := range []float64{10, 20, 100, 100, 100, 100} {
		tr.add([]int{1}, xfer.Report{Throughput: tp})
	}
	critical := func(tr *Trace, window int) int {
		return FirstWindow(tr.Results, window, 0.9*tr.SteadyMean(window))
	}
	if got := critical(tr, 2); got != 2 {
		t.Fatalf("critical epoch = %d, want 2", got)
	}
	if got := critical(tr, 10); got != -1 {
		t.Fatalf("short trace: got %d, want -1", got)
	}
	if got := critical(&Trace{Results: tr.Results[2:]}, 2); got != 0 {
		t.Fatalf("flat trace critical epoch = %d, want 0", got)
	}
}

func TestModelSamplePoints(t *testing.T) {
	cfg := cfg1D(0).withDefaults()
	pts := samplePoints(cfg)
	if len(pts) < 3 {
		t.Fatalf("too few sample points: %v", pts)
	}
	seen := map[int]bool{}
	for _, p := range pts {
		if p < 1 || p > 128 || seen[p] {
			t.Fatalf("bad sample points %v", pts)
		}
		seen[p] = true
	}
	// Tiny box still yields three distinct points when possible.
	small := cfg
	small.Box = directsearch.MustBox([]int{1}, []int{3})
	if got := samplePoints(small); len(got) < 3 {
		t.Fatalf("tiny box points %v", got)
	}
}

// modelCurve builds a throughput function from the model family
// Th(n) = scale * n / sqrt(a*n^2 + b*n + c) with its peak at the
// given stream count and a negative discriminant (valid everywhere).
func modelCurve(peak int, scale float64) func(p xfer.Params, now float64) float64 {
	c := 4e-17
	b := -2 * c / float64(peak)
	a := b * b / (2 * c) // 4ac = 2b^2 > b^2: always positive
	return func(p xfer.Params, _ float64) float64 {
		n := float64(p.NC)
		return scale * n / math.Sqrt(a*n*n+b*n+c)
	}
}

func TestModelTunerFindsPeak(t *testing.T) {
	tr, err := Run(context.Background(), "model", cfg1D(900), newFake(modelCurve(28, 1)))
	if err != nil {
		t.Fatal(err)
	}
	x := tr.FinalX()
	if x[0] < 20 || x[0] > 40 {
		t.Fatalf("model tuner settled at nc=%d, want near 28", x[0])
	}
}

func TestModelTunerResamplesOnShift(t *testing.T) {
	early := modelCurve(20, 1)
	late := modelCurve(100, 3)
	shiftG := func(p xfer.Params, now float64) float64 {
		if now < 600 {
			return early(p, now)
		}
		return late(p, now)
	}
	tr, err := Run(context.Background(), "model", cfg1D(1800), newFake(shiftG))
	if err != nil {
		t.Fatal(err)
	}
	// After the shift the peak moves to 100; the re-sampled model
	// must land well above the pre-shift peak of 20.
	if x := tr.FinalX(); x[0] < 60 {
		t.Fatalf("model tuner did not re-adapt: final nc=%d", x[0])
	}
}

func TestModelTunerName(t *testing.T) {
	if NewModelStrategy(cfg1D(10)).Name() != "model" {
		t.Fatal("name")
	}
}

func TestModelTunerBadConfig(t *testing.T) {
	if _, err := Run(context.Background(), "model", Config{}, newFake(peaked(5))); err == nil {
		t.Fatal("bad config accepted")
	}
}

// noisy wraps an objective with deterministic pseudo-random
// multiplicative noise of the given amplitude.
func noisy(g func(xfer.Params, float64) float64, amp float64) func(xfer.Params, float64) float64 {
	state := uint64(0x9e3779b97f4a7c15)
	return func(p xfer.Params, now float64) float64 {
		state = state*6364136223846793005 + 1442695040888963407
		u := float64(state>>11) / float64(1<<53) // [0,1)
		return g(p, now) * (1 + amp*(2*u-1))
	}
}

func TestTunersTolerateMildNoise(t *testing.T) {
	// 3% noise sits under the 5% tolerance: tuners should still beat
	// the static default clearly.
	base, err := Run(context.Background(), "default", cfg1D(900), newFake(noisy(peaked(20), 0.03)))
	if err != nil {
		t.Fatal(err)
	}
	def := base.SteadyThroughput(450)
	for _, name := range []string{"cd-tuner", "cs-tuner", "nm-tuner"} {
		tr, err := Run(context.Background(), name, cfg1D(900), newFake(noisy(peaked(20), 0.03)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := tr.SteadyThroughput(450); got < 2*def {
			t.Errorf("%s under mild noise: steady %v not >= 2x default %v", name, got, def)
		}
	}
}

func TestSearchTunersSurviveHeavyNoise(t *testing.T) {
	// 15% noise constantly re-triggers the monitor; the tuners must
	// not crash, loop, or collapse below the static baseline.
	base, err := Run(context.Background(), "default", cfg1D(1200), newFake(noisy(peaked(20), 0.15)))
	if err != nil {
		t.Fatal(err)
	}
	def := base.MeanThroughput()
	for _, name := range []string{"cs-tuner", "nm-tuner"} {
		tr, err := Run(context.Background(), name, cfg1D(1200), newFake(noisy(peaked(20), 0.15)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := tr.MeanThroughput(); got < def {
			t.Errorf("%s under heavy noise: mean %v below default %v", name, got, def)
		}
	}
}
