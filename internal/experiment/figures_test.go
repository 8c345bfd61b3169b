package experiment

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dstune/internal/load"
	"dstune/internal/trace"
	"dstune/internal/tuner"
)

// quickRC is a shortened run configuration for tests: a 900 s budget
// with the paper's 30 s epochs gives the tuners 30 control epochs.
// (Shorter epochs would inflate the restart overhead far beyond the
// paper's regime — the dead time is what it is.)
func quickRC() RunConfig {
	return RunConfig{Seed: 7, Duration: 900, Epoch: 30}
}

func TestFig1Shape(t *testing.T) {
	// The pinned sweep is shortened: seed 1, 2 repeats of 240 s at
	// nc = 1, 4, 16, 64, 256.
	out := outcome(t, "1")
	if len(out.Charts) != 1 || len(out.Charts[0].Series) != 2 {
		t.Fatalf("want one chart of two series (no load, loaded), got %d charts", len(out.Charts))
	}
	medians := func(s *trace.Series) map[int]float64 {
		m := map[int]float64{}
		for _, p := range s.Points {
			m[int(p.T)] = p.V
		}
		return m
	}
	free, loaded := medians(out.Charts[0].Series[0]), medians(out.Charts[0].Series[1])
	critFree := int(metric(t, out, "fig1/free/critical-nc"))
	critLoaded := int(metric(t, out, "fig1/loaded/critical-nc"))

	// Throughput rises monotonically with streams up to the critical
	// point (paper observation 1).
	if !(free[4] > free[1] && free[16] > free[4]) {
		t.Fatalf("no-load throughput not rising: %v / %v / %v", free[1], free[4], free[16])
	}
	// ...and declines beyond it.
	if free[256] >= free[64] {
		t.Fatalf("no decline past critical point: nc=64 %v vs nc=256 %v", free[64], free[256])
	}
	// The critical point increases with external load (observation 2).
	if critLoaded < critFree {
		t.Fatalf("critical point fell under load: %d -> %d", critFree, critLoaded)
	}
	// External load decreases the peak throughput (observation 3).
	if peakFree, peakLoaded := free[critFree], loaded[critLoaded]; peakLoaded >= peakFree {
		t.Fatalf("peak did not drop under load: %v -> %v", peakFree, peakLoaded)
	}
	if !strings.Contains(out.Text, "critical points") {
		t.Fatal("text missing critical points")
	}
}

// TestSweepsDeterministic pins the worker-pool parallelization of the
// sweep loops: every cell runs on its own seeded fabric, so the
// results must be bit-identical across runs regardless of goroutine
// scheduling.
func TestSweepsDeterministic(t *testing.T) {
	runs := Config{Seed: 11, Quick: true}
	a, err := study(t, "1").Run(NewRuns(runs))
	if err != nil {
		t.Fatal(err)
	}
	b, err := study(t, "1").Run(NewRuns(runs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Figure 1 not deterministic under parallel sweep:\n%s\nvs\n%s", a.Text, b.Text)
	}

	rc := RunConfig{Seed: 13, Duration: 300, Epoch: 30}
	r1, err := TuneConcurrency(ANLtoUChicago(), load.Load{}, rc)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := TuneConcurrency(ANLtoUChicago(), load.Load{}, rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Traces, r2.Traces) {
		t.Fatal("runSet traces not deterministic under parallel tuner runs")
	}
}

func TestTuneConcurrencyNoLoad(t *testing.T) {
	out := outcome(t, "5")
	def := traceOf(t, out, "fig5-free/default").SteadyThroughput(600)
	for _, name := range []string{"cd-tuner", "cs-tuner", "nm-tuner"} {
		tr := traceOf(t, out, "fig5-free/"+name)
		if tr.SteadyThroughput(600) < def {
			t.Errorf("%s steady %v below default %v", name, tr.SteadyThroughput(600), def)
		}
		if x := tr.FinalX(); x[0] <= 2 {
			t.Errorf("%s did not raise nc above the default 2 (final %v)", name, x)
		}
	}
}

func TestTuneConcurrencyComputeLoad(t *testing.T) {
	out := outcome(t, "5")
	def := traceOf(t, out, "fig5-cmp16/default").SteadyThroughput(600)
	bestOf := 0.0
	for _, name := range []string{"cs-tuner", "nm-tuner"} {
		if v := traceOf(t, out, "fig5-cmp16/"+name).SteadyThroughput(600); v > bestOf {
			bestOf = v
		}
	}
	if bestOf < 3*def {
		t.Fatalf("under cmp=16 the best tuner (%v) is not >=3x default (%v)", bestOf, def)
	}
}

func TestImprovementsFromResults(t *testing.T) {
	claims, sweep := outcome(t, "claims"), outcome(t, "5")
	factor := metric(t, claims, "claims/cmp16/factor")
	if factor < 2 {
		t.Fatalf("improvement factor %v under compute load, want >= 2", factor)
	}
	// The factor is the best adaptive tuner's mean over default's.
	def, best := metric(t, sweep, "fig5-cmp16/default/mean-MB/s"), 0.0
	for _, name := range []string{"cd-tuner", "cs-tuner", "nm-tuner"} {
		best = max(best, metric(t, sweep, "fig5-cmp16/"+name+"/mean-MB/s"))
	}
	if got := best / def; math.Abs(got-factor) > 1e-9*factor {
		t.Fatalf("claims factor %v, but the best tuner's mean over default's is %v", factor, got)
	}
	// The adaptive tuners pay restart overhead; default pays almost
	// none.
	if ov := metric(t, sweep, "fig5-cmp16/default/overhead-%"); ov > 5 {
		t.Errorf("default overhead %v%%, want ~0", ov)
	}
	for _, name := range []string{"cs-tuner", "nm-tuner"} {
		if ov := metric(t, sweep, "fig5-cmp16/"+name+"/overhead-%"); ov <= 1 || ov >= 80 {
			t.Errorf("%s overhead %v%%, want within the paper's 15-50%% ballpark", name, ov)
		}
	}
	if !strings.Contains(claims.Text, "factor") {
		t.Fatal("claims text missing header")
	}
}

func TestTuneBothAdaptsToLoadDrop(t *testing.T) {
	out := outcome(t, "8")
	def := traceOf(t, out, "fig8-tune-both/default")
	for _, name := range []string{"cs-tuner", "nm-tuner"} {
		tr := traceOf(t, out, "fig8-tune-both/"+name)
		// After the load drops at t=1000 the tuners must beat default
		// decisively (the paper reports up to 10x here).
		dAfter := def.SteadyThroughput(1200)
		tAfter := tr.SteadyThroughput(1200)
		if tAfter < 2*dAfter {
			t.Errorf("%s after load drop: %v vs default %v, want >=2x", name, tAfter, dAfter)
		}
	}
	if !strings.Contains(out.Text, "cs-tuner") {
		t.Fatal("text missing tuner block")
	}
}

func TestCompareHeuristics(t *testing.T) {
	out := outcome(t, "10")
	nm := traceOf(t, out, "fig10-heuristics/nm-tuner").MeanThroughput()
	h1 := traceOf(t, out, "fig10-heuristics/heur1").MeanThroughput()
	if nm < h1 {
		t.Errorf("nm-tuner (%v) below heur1 (%v); the paper finds nm and heur2 clearly ahead", nm, h1)
	}
	// heur2 terminates: its vector must be constant over the last
	// third of the run.
	h2 := traceOf(t, out, "fig10-heuristics/heur2")
	last := h2.Results[len(h2.Results)-1].X
	for _, r := range h2.Results[2*len(h2.Results)/3:] {
		if !equalIntsTest(r.X, last) {
			t.Fatalf("heur2 still moving late in the run: %v vs %v", r.X, last)
		}
	}
}

func equalIntsTest(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSimultaneous(t *testing.T) {
	out := outcome(t, "11")
	uc, tc := metric(t, out, "fig11/uchicago-MB/s"), metric(t, out, "fig11/tacc-MB/s")
	if uc <= 0 || tc <= 0 {
		t.Fatalf("transfers made no progress: %v, %v MB/s", uc, tc)
	}
	// The shared NIC bounds the aggregate.
	if uc+tc > 5000 {
		t.Fatalf("aggregate %v MB/s exceeds the 5 GB/s NIC", uc+tc)
	}
	// The paper observes the UChicago transfer claiming the larger
	// share of the shared NIC (its path supports 5 GB/s vs 2.5).
	if uc < tc {
		t.Logf("note: TACC (%v) out-earned UChicago (%v) this seed", tc, uc)
	}
	if !strings.Contains(out.Text, "aggregate") {
		t.Fatal("text missing aggregate line")
	}
}

// TestSimultaneousRepeatable: two sessions on one fabric are tuned on
// two goroutines with nothing but the fabric's barrier between them, and
// the result must not depend on which of them reaches the fabric first.
// Ten runs per seed on one processor and ten on two, side by side so the
// scheduler has something to reorder, give one result — full traces, not
// only their means.
func TestSimultaneousRepeatable(t *testing.T) {
	const runs = 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, seed := range []uint64{1, 9} {
		rc := RunConfig{Seed: seed, Duration: 600}
		var want *SimultaneousResult
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			got := make([]*SimultaneousResult, runs)
			errs := make([]error, runs)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], errs[i] = Simultaneous("nm-tuner", rc)
				}()
			}
			wg.Wait()
			for i, res := range got {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if want == nil {
					want = res
				}
				if !reflect.DeepEqual(res, want) {
					t.Fatalf("seed %d, GOMAXPROCS %d: run %d differs from the first: mean throughputs (%v, %v) vs (%v, %v)", seed, procs, i,
						res.UChicago.MeanThroughput(), res.TACC.MeanThroughput(),
						want.UChicago.MeanThroughput(), want.TACC.MeanThroughput())
				}
			}
		}
	}
}

func TestUnknownTuner(t *testing.T) {
	if _, err := tuner.NewStrategy("bogus", RunConfig{}.withDefaults().tunerCfg(false)); err == nil {
		t.Fatal("unknown tuner accepted")
	}
	if _, err := Simultaneous("bogus", quickRC()); err == nil {
		t.Fatal("Simultaneous with unknown tuner accepted")
	}
}

func TestTunerNamesBuildable(t *testing.T) {
	cfg := RunConfig{}.withDefaults().tunerCfg(true)
	for _, name := range TunerNames() {
		s, err := tuner.NewStrategy(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("name mismatch: %q vs %q", s.Name(), name)
		}
	}
}

func TestThirdPartyRobustness(t *testing.T) {
	out := outcome(t, "third-party")
	def := traceOf(t, out, "third-party/default").MeanThroughput()
	nm := traceOf(t, out, "third-party/nm-tuner").MeanThroughput()
	if nm < def {
		t.Fatalf("nm-tuner (%v) below default (%v) under bursty third-party traffic", nm, def)
	}
	if !strings.Contains(out.Text, "bursty third-party net=64 period=180s") {
		t.Fatalf("text lacks the scenario label:\n%s", out.Text)
	}
}

func TestConvergenceTimesDerived(t *testing.T) {
	out := outcome(t, "convergence")
	times := map[string]float64{}
	for k, v := range out.Metrics {
		if name, ok := strings.CutPrefix(k, "convergence/free/"); ok {
			times[strings.TrimSuffix(name, "-s")] = v
		}
	}
	if len(times) != 4 {
		t.Fatalf("got %d entries", len(times))
	}
	// The static default is at steady state from the start.
	if times["default"] > 60 {
		t.Fatalf("default convergence %v, want immediate", times["default"])
	}
	// The paper: cd-tuner reaches steady state quickly with a good
	// starting point; cs/nm take large early steps and converge later.
	if cd := times["cd-tuner"]; cd < 0 || cd > 600 {
		t.Fatalf("cd-tuner convergence %v out of range", cd)
	}
}

func TestCompareModel(t *testing.T) {
	out := outcome(t, "model")
	def := traceOf(t, out, "compare-model/default").MeanThroughput()
	mod := traceOf(t, out, "compare-model/model").MeanThroughput()
	nm := traceOf(t, out, "compare-model/nm-tuner").MeanThroughput()
	if nm <= 0 || mod <= 0 || def <= 0 {
		t.Fatal("no progress")
	}
	// The paper's core argument: under changing external conditions
	// the model-based empirical approach degrades (its probing and
	// refitting overhead eats its gains) while direct search stays
	// clearly ahead.
	if nm < 2*mod {
		t.Fatalf("nm-tuner (%v) not well above the model baseline (%v) under varying load", nm, mod)
	}
	// The model baseline must still be in default's ballpark — it is
	// not catastrophically wrong, just not adaptive enough.
	if mod < 0.5*def {
		t.Fatalf("model baseline (%v) collapsed below half of default (%v)", mod, def)
	}
	t.Logf("default %.0f, model %.0f, nm %.0f MB/s", def/1e6, mod/1e6, nm/1e6)
}

func TestTACCNoLoadTrend(t *testing.T) {
	// §IV-A final paragraph: on ANL->TACC without load, adaptive
	// gains are modest (far below the 4x+ of the compute-load
	// scenarios) and the best-case rate exceeds the observed rate by
	// the restart overhead.
	out := outcome(t, "tacc")
	def := traceOf(t, out, "tacc-no-load/default").MeanThroughput()
	nm := traceOf(t, out, "tacc-no-load/nm-tuner")
	if gain := nm.MeanThroughput() / def; gain < 1.0 || gain > 2.0 {
		t.Fatalf("no-load TACC gain %v, want modest (1-2x)", gain)
	}
	if nm.MeanBestCase() <= nm.MeanThroughput() {
		t.Fatal("best-case should exceed observed for a restarting tuner")
	}
}
