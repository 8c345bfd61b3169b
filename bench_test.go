// Benchmarks that regenerate every figure of the paper's evaluation
// plus the ablations called out in DESIGN.md §6. Custom metrics carry
// the figures' headline numbers (MB/s, improvement factors, critical
// points) into the benchmark output:
//
//	go test -bench=. -benchmem
package dstune_test

import (
	"context"
	"fmt"
	"testing"

	"dstune"
)

// benchRC is the paper-faithful run configuration (1800 s transfers,
// 30 s epochs).
func benchRC(seed uint64) dstune.RunConfig {
	return dstune.RunConfig{Seed: seed, Duration: 1800}
}

// BenchmarkFig1 regenerates the Figure 1 concurrency sweep (boxplots
// of throughput vs parallel streams, with and without external load)
// and reports the critical points and their median throughputs.
func BenchmarkFig1(b *testing.B) {
	var res *dstune.Fig1Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = dstune.Fig1(dstune.ANLtoUChicago(), dstune.Fig1Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	noLoad, hiLoad := dstune.Load{}, dstune.Load{Tfr: 16, Cmp: 16}
	b.ReportMetric(float64(res.Critical[noLoad]), "critical-nc-free")
	b.ReportMetric(float64(res.Critical[hiLoad]), "critical-nc-loaded")
	b.ReportMetric(res.Summary[noLoad][res.Critical[noLoad]].Median/1e6, "peak-free-MB/s")
	b.ReportMetric(res.Summary[hiLoad][res.Critical[hiLoad]].Median/1e6, "peak-loaded-MB/s")
}

// sweep runs the Figures 5-7 load sweep (default, cd, cs, nm tuning
// concurrency under the five load scenarios).
func sweep(b *testing.B, seed uint64) []*dstune.TuningResult {
	b.Helper()
	var out []*dstune.TuningResult
	for _, l := range dstune.Fig5Loads() {
		res, err := dstune.TuneConcurrency(dstune.ANLtoUChicago(), l, benchRC(seed))
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

// BenchmarkFig5 regenerates the observed-throughput traces of
// Figure 5 and reports the no-load and cmp=16 means for nm-tuner vs
// default.
func BenchmarkFig5(b *testing.B) {
	var results []*dstune.TuningResult
	for i := 0; i < b.N; i++ {
		results = sweep(b, 5)
	}
	b.ReportMetric(results[0].Traces["default"].MeanThroughput()/1e6, "free-default-MB/s")
	b.ReportMetric(results[0].Traces["nm-tuner"].MeanThroughput()/1e6, "free-nm-MB/s")
	b.ReportMetric(results[1].Traces["default"].MeanThroughput()/1e6, "cmp16-default-MB/s")
	b.ReportMetric(results[1].Traces["nm-tuner"].MeanThroughput()/1e6, "cmp16-nm-MB/s")
}

// BenchmarkFig6 regenerates the concurrency-trajectory view of the
// same sweep (Figure 6) and reports the final nc the tuners adopt
// with and without compute load.
func BenchmarkFig6(b *testing.B) {
	var results []*dstune.TuningResult
	for i := 0; i < b.N; i++ {
		results = sweep(b, 6)
	}
	b.ReportMetric(float64(results[0].Traces["nm-tuner"].FinalX()[0]), "free-nm-final-nc")
	b.ReportMetric(float64(results[1].Traces["nm-tuner"].FinalX()[0]), "cmp16-nm-final-nc")
	b.ReportMetric(float64(results[3].Traces["cs-tuner"].FinalX()[0]), "tfr16-cs-final-nc")
}

// BenchmarkFig7 regenerates the best-case (restart-overhead-free)
// view of the sweep (Figure 7) and reports the overhead percentages
// the paper quotes as 17%/33%/50% for no load / cmp=16 / cmp=64.
func BenchmarkFig7(b *testing.B) {
	var results []*dstune.TuningResult
	for i := 0; i < b.N; i++ {
		results = sweep(b, 7)
	}
	overhead := func(res *dstune.TuningResult, name string) float64 {
		tr := res.Traces[name]
		return 100 * (1 - tr.MeanThroughput()/tr.MeanBestCase())
	}
	b.ReportMetric(overhead(results[0], "nm-tuner"), "free-overhead-%")
	b.ReportMetric(overhead(results[1], "nm-tuner"), "cmp16-overhead-%")
	b.ReportMetric(overhead(results[2], "nm-tuner"), "cmp64-overhead-%")
}

// benchTuneBoth is the shared Figures 8/9 body.
func benchTuneBoth(b *testing.B, tb dstune.Testbed, seed uint64) {
	b.Helper()
	var res *dstune.TuningResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = dstune.TuneBoth(tb, benchRC(seed))
		if err != nil {
			b.Fatal(err)
		}
	}
	def := res.Traces["default"]
	nm := res.Traces["nm-tuner"]
	b.ReportMetric(def.SteadyThroughput(1200)/1e6, "after-default-MB/s")
	b.ReportMetric(nm.SteadyThroughput(1200)/1e6, "after-nm-MB/s")
	b.ReportMetric(nm.SteadyThroughput(1200)/def.SteadyThroughput(1200), "after-factor")
}

// BenchmarkFig8 regenerates Figure 8: two-parameter tuning on
// ANL->TACC under the varying load (step at t=1000 s).
func BenchmarkFig8(b *testing.B) { benchTuneBoth(b, dstune.ANLtoTACC(), 8) }

// BenchmarkFig9 regenerates Figure 9: the same on ANL->UChicago.
func BenchmarkFig9(b *testing.B) { benchTuneBoth(b, dstune.ANLtoUChicago(), 9) }

// BenchmarkFig10 regenerates Figure 10: nm-tuner vs the heur1/heur2
// baselines on ANL->TACC under varying load.
func BenchmarkFig10(b *testing.B) {
	var res *dstune.TuningResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = dstune.CompareHeuristics(dstune.ANLtoTACC(), benchRC(10))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Traces["nm-tuner"].MeanThroughput()/1e6, "nm-MB/s")
	b.ReportMetric(res.Traces["heur1"].MeanThroughput()/1e6, "heur1-MB/s")
	b.ReportMetric(res.Traces["heur2"].MeanThroughput()/1e6, "heur2-MB/s")
}

// BenchmarkFig11 regenerates Figure 11: two simultaneous nm-tuned
// transfers sharing the ANL source NIC.
func BenchmarkFig11(b *testing.B) {
	var res *dstune.SimultaneousResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = dstune.Simultaneous("nm-tuner", benchRC(11))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.UChicago.MeanThroughput()/1e6, "uchicago-MB/s")
	b.ReportMetric(res.TACC.MeanThroughput()/1e6, "tacc-MB/s")
	b.ReportMetric((res.UChicago.MeanThroughput()+res.TACC.MeanThroughput())/1e6, "aggregate-MB/s")
}

// BenchmarkClaims derives the §IV-A claims table (improvement factors
// over default per load scenario).
func BenchmarkClaims(b *testing.B) {
	var imps []dstune.Improvement
	for i := 0; i < b.N; i++ {
		imps = dstune.Improvements(sweep(b, 12))
	}
	b.ReportMetric(imps[0].Factor, "free-factor")
	b.ReportMetric(imps[1].Factor, "cmp16-factor")
	b.ReportMetric(imps[2].Factor, "cmp64-factor")
	b.ReportMetric(imps[3].Factor, "tfr16-factor")
	b.ReportMetric(imps[4].Factor, "tfr64-factor")
}

// BenchmarkThirdParty measures robustness to bursty third-party
// network traffic — the uncontrolled condition the paper mentions —
// with 64 background streams toggling every 3 minutes.
func BenchmarkThirdParty(b *testing.B) {
	var res *dstune.TuningResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = dstune.ThirdParty(dstune.ANLtoUChicago(), 64, 180, benchRC(19))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Traces["default"].MeanThroughput()/1e6, "default-MB/s")
	b.ReportMetric(res.Traces["nm-tuner"].MeanThroughput()/1e6, "nm-MB/s")
	b.ReportMetric(res.Traces["cs-tuner"].MeanThroughput()/1e6, "cs-MB/s")
}

// BenchmarkConvergence derives the §IV-A convergence-time claims:
// cd-tuner reaches steady state fast when the optimum is near its
// start; cs/nm take large early steps and need more control epochs.
func BenchmarkConvergence(b *testing.B) {
	var free, loaded map[string]float64
	for i := 0; i < b.N; i++ {
		resFree, err := dstune.TuneConcurrency(dstune.ANLtoUChicago(), dstune.Load{}, benchRC(20))
		if err != nil {
			b.Fatal(err)
		}
		resLoaded, err := dstune.TuneConcurrency(dstune.ANLtoUChicago(), dstune.Load{Cmp: 16}, benchRC(20))
		if err != nil {
			b.Fatal(err)
		}
		free = dstune.ConvergenceTimes(resFree, 0.9, 3)
		loaded = dstune.ConvergenceTimes(resLoaded, 0.9, 3)
	}
	b.ReportMetric(free["cd-tuner"], "free-cd-s")
	b.ReportMetric(free["nm-tuner"], "free-nm-s")
	b.ReportMetric(loaded["cd-tuner"], "cmp16-cd-s")
	b.ReportMetric(loaded["cs-tuner"], "cmp16-cs-s")
	b.ReportMetric(loaded["nm-tuner"], "cmp16-nm-s")
}

// BenchmarkModelBaseline compares the related-work empirical model
// (Yildirim/Yin curve fitting) against direct search under the
// varying load — the paper's motivating comparison with the
// "empirical approaches" class.
func BenchmarkModelBaseline(b *testing.B) {
	var res *dstune.TuningResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = dstune.CompareModel(dstune.ANLtoTACC(), benchRC(22))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Traces["default"].MeanThroughput()/1e6, "default-MB/s")
	b.ReportMetric(res.Traces["model"].MeanThroughput()/1e6, "model-MB/s")
	b.ReportMetric(res.Traces["nm-tuner"].MeanThroughput()/1e6, "nm-MB/s")
}

// BenchmarkAblationCC varies the TCP congestion-control algorithm on
// the source endpoints (the paper's testbed ran H-TCP; CUBIC is the
// Linux default).
func BenchmarkAblationCC(b *testing.B) {
	for _, cc := range []string{"htcp", "cubic", "reno", "scalable"} {
		b.Run(cc, func(b *testing.B) {
			tb := dstune.ANLtoUChicago()
			tb.CC = cc
			var res *dstune.TuningResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = dstune.TuneConcurrency(tb, dstune.Load{}, dstune.RunConfig{Seed: 13, Duration: 900})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Traces["nm-tuner"].MeanThroughput()/1e6, "nm-MB/s")
			b.ReportMetric(res.Traces["default"].MeanThroughput()/1e6, "default-MB/s")
		})
	}
}

// BenchmarkAblationEpoch varies the control epoch length: short
// epochs adapt faster but amplify the restart overhead.
func BenchmarkAblationEpoch(b *testing.B) {
	for _, e := range []float64{10, 30, 60} {
		b.Run(fmtSeconds(e), func(b *testing.B) {
			rc := dstune.RunConfig{Seed: 14, Duration: 1800, Epoch: e}
			var res *dstune.TuningResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = dstune.TuneConcurrency(dstune.ANLtoUChicago(), dstune.Load{Cmp: 16}, rc)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Traces["nm-tuner"].MeanThroughput()/1e6, "nm-MB/s")
		})
	}
}

// BenchmarkDisk runs the disk-to-disk extension (future-work item
// (1)) across the three file-size regimes, reporting the static
// default against the best three-parameter tuner.
func BenchmarkDisk(b *testing.B) {
	for _, sc := range dstune.DiskScenarios(16) {
		sc := sc
		b.Run(sc.Name, func(b *testing.B) {
			var res *dstune.TuningResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = dstune.TuneDisk(dstune.ANLtoUChicago(), sc, benchRC(16))
				if err != nil {
					b.Fatal(err)
				}
			}
			def := res.Traces["default"]
			nm := res.Traces["nm-tuner"]
			b.ReportMetric(def.MeanThroughput()/1e6, "default-MB/s")
			b.ReportMetric(nm.MeanThroughput()/1e6, "nm-MB/s")
			b.ReportMetric(float64(dstune.FilesMoved(nm)), "nm-files")
			if x := nm.FinalX(); len(x) == 3 {
				b.ReportMetric(float64(x[2]), "nm-final-pp")
			}
		})
	}
}

// BenchmarkJointVsIndependent compares endpoint-level joint tuning
// (future-work item (4)) against Figure 11's independent tuners.
func BenchmarkJointVsIndependent(b *testing.B) {
	var jc *dstune.JointComparison
	var err error
	for i := 0; i < b.N; i++ {
		jc, err = dstune.JointVsIndependent(benchRC(17))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(jc.IndependentAggregate()/1e6, "independent-MB/s")
	b.ReportMetric(jc.JointAggregate()/1e6, "joint-MB/s")
}

// BenchmarkAblationPipelining sweeps a static pipelining depth on the
// many-small regime, isolating the parameter the disk extension adds.
func BenchmarkAblationPipelining(b *testing.B) {
	for _, pp := range []int{1, 4, 16} {
		pp := pp
		b.Run(fmt.Sprintf("pp%d", pp), func(b *testing.B) {
			var tput float64
			for i := 0; i < b.N; i++ {
				fabric, _, err := dstune.ANLtoUChicago().NewFabric(18)
				if err != nil {
					b.Fatal(err)
				}
				tr, err := fabric.NewTransfer(dstune.TransferConfig{
					Name:         "pp",
					Files:        dstune.ManySmallFiles(20000),
					DiskRate:     2e9,
					FileOverhead: 0.5,
					Policy:       dstune.RestartOnChange,
				})
				if err != nil {
					b.Fatal(err)
				}
				trace, err := dstune.Run(context.Background(), "default", dstune.TunerConfig{
					Box:    dstune.MustBox([]int{1, 1, 1}, []int{64, 16, 32}),
					Start:  []int{8, 4, pp},
					Map:    dstune.MapNCNPPP(),
					Budget: 600,
				}, tr)
				if err != nil {
					b.Fatal(err)
				}
				tput = trace.MeanThroughput()
			}
			b.ReportMetric(tput/1e6, "MB/s")
		})
	}
}

// BenchmarkAblationObserveBestCase revisits the restart ablation with
// the restart-aware monitor: observing best-case throughput removes
// the artifact that penalized RestartOnChange in
// BenchmarkAblationRestart.
func BenchmarkAblationObserveBestCase(b *testing.B) {
	for _, mode := range []struct {
		name        string
		observeBest bool
	}{
		{"observe-throughput", false},
		{"observe-bestcase", true},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var tr *dstune.Trace
			for i := 0; i < b.N; i++ {
				tr = runCustomCSObserve(b, dstune.RestartOnChange, mode.observeBest)
			}
			b.ReportMetric(tr.MeanThroughput()/1e6, "cs-MB/s")
		})
	}
}

// runCustomCSObserve is runCustomCS with an observation-mode switch.
func runCustomCSObserve(b *testing.B, restart dstune.RestartPolicy, observeBest bool) *dstune.Trace {
	b.Helper()
	fabric, _, err := dstune.ANLtoUChicago().NewFabric(15)
	if err != nil {
		b.Fatal(err)
	}
	fabric.SetLoad(dstune.ConstantLoad(dstune.Load{Cmp: 16}), nil)
	tr, err := fabric.NewTransfer(dstune.TransferConfig{
		Name: "ablation", Bytes: dstune.Unbounded, Policy: restart,
	})
	if err != nil {
		b.Fatal(err)
	}
	trace, err := dstune.Run(context.Background(), "cs-tuner", dstune.TunerConfig{
		Box:             dstune.MustBox([]int{1}, []int{128}),
		Start:           []int{2},
		Map:             dstune.MapNC(8),
		Budget:          1800,
		Seed:            15,
		ObserveBestCase: observeBest,
	}, tr)
	if err != nil {
		b.Fatal(err)
	}
	return trace
}

// runCustomCS runs a cs-tuner with explicit tolerance/lambda on the
// cmp=16 scenario, returning the trace.
func runCustomCS(b *testing.B, tolerance, lambda float64, restart dstune.RestartPolicy) *dstune.Trace {
	b.Helper()
	fabric, _, err := dstune.ANLtoUChicago().NewFabric(15)
	if err != nil {
		b.Fatal(err)
	}
	fabric.SetLoad(dstune.ConstantLoad(dstune.Load{Cmp: 16}), nil)
	tr, err := fabric.NewTransfer(dstune.TransferConfig{
		Name: "ablation", Bytes: dstune.Unbounded, Policy: restart,
	})
	if err != nil {
		b.Fatal(err)
	}
	trace, err := dstune.Run(context.Background(), "cs-tuner", dstune.TunerConfig{
		Tolerance: tolerance,
		Lambda:    lambda,
		Box:       dstune.MustBox([]int{1}, []int{128}),
		Start:     []int{2},
		Map:       dstune.MapNC(8),
		Budget:    1800,
		Seed:      15,
	}, tr)
	if err != nil {
		b.Fatal(err)
	}
	return trace
}

// BenchmarkAblationTolerance varies the significance threshold ε.
func BenchmarkAblationTolerance(b *testing.B) {
	for _, eps := range []float64{1, 5, 10} {
		b.Run(fmtPercent(eps), func(b *testing.B) {
			var tr *dstune.Trace
			for i := 0; i < b.N; i++ {
				tr = runCustomCS(b, eps, 8, dstune.RestartEveryEpoch)
			}
			b.ReportMetric(tr.MeanThroughput()/1e6, "cs-MB/s")
		})
	}
}

// BenchmarkAblationLambda varies compass search's initial step size.
func BenchmarkAblationLambda(b *testing.B) {
	for _, lam := range []float64{2, 8, 32} {
		b.Run(fmtSeconds(lam), func(b *testing.B) {
			var tr *dstune.Trace
			for i := 0; i < b.N; i++ {
				tr = runCustomCS(b, 5, lam, dstune.RestartEveryEpoch)
			}
			b.ReportMetric(tr.MeanThroughput()/1e6, "cs-MB/s")
		})
	}
}

// BenchmarkAblationRestart compares the paper's restart-every-epoch
// behaviour against the "ideal scenario" of its future-work item (2):
// adapting parameters without restarting the transfer.
func BenchmarkAblationRestart(b *testing.B) {
	for _, mode := range []struct {
		name   string
		policy dstune.RestartPolicy
	}{
		{"every-epoch", dstune.RestartEveryEpoch},
		{"on-change", dstune.RestartOnChange},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var tr *dstune.Trace
			for i := 0; i < b.N; i++ {
				tr = runCustomCS(b, 5, 8, mode.policy)
			}
			b.ReportMetric(tr.MeanThroughput()/1e6, "cs-MB/s")
		})
	}
}

// fmtSeconds renders a float for sub-benchmark names.
func fmtSeconds(v float64) string { return fmt.Sprintf("%gs", v) }

// fmtPercent renders a float for sub-benchmark names.
func fmtPercent(v float64) string { return fmt.Sprintf("%gpct", v) }

// BenchmarkTACCNoLoad reproduces the §IV-A "trend is similar on ANL
// to TACC" paragraph: without external load the tuners' gains are
// modest and mostly eaten by restart overhead; the best-case rate
// shows what a restart-free engine would get.
func BenchmarkTACCNoLoad(b *testing.B) {
	var res *dstune.TuningResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = dstune.TuneConcurrency(dstune.ANLtoTACC(), dstune.Load{}, benchRC(30))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Traces["default"].MeanThroughput()/1e6, "default-MB/s")
	b.ReportMetric(res.Traces["nm-tuner"].MeanThroughput()/1e6, "nm-MB/s")
	b.ReportMetric(res.Traces["nm-tuner"].MeanBestCase()/1e6, "nm-bestcase-MB/s")
}
