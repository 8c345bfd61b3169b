package experiment

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"dstune/internal/dataset"
	"dstune/internal/load"
	"dstune/internal/tuner"
)

// updateGolden rewrites testdata/figures.golden.json from the current
// simulator, printing old → new for every metric that moved.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/figures.golden.json")

// The seeded figure runs. Each is simulated once per test binary, by
// whichever test asks first: the shape tests assert the paper's claims
// on them and TestFigureMetricsGolden pins their numbers, so the golden
// costs no simulation of its own.
var (
	figTuneFree = sync.OnceValues(func() (*TuningResult, error) {
		return TuneConcurrency(ANLtoUChicago(), load.Load{}, quickRC())
	})
	figTuneCmp16 = sync.OnceValues(func() (*TuningResult, error) {
		return TuneConcurrency(ANLtoUChicago(), load.Load{Cmp: 16}, quickRC())
	})
	figTuneBoth = sync.OnceValues(func() (*TuningResult, error) {
		return TuneBoth(ANLtoTACC(), RunConfig{Seed: 3, Duration: 1800, Epoch: 30})
	})
	figHeuristics = sync.OnceValues(func() (*TuningResult, error) {
		return CompareHeuristics(ANLtoTACC(), RunConfig{Seed: 5, Duration: 1800, Epoch: 30})
	})
	figSimultaneous = sync.OnceValues(func() (*SimultaneousResult, error) {
		return Simultaneous("nm-tuner", RunConfig{Seed: 9, Duration: 1200, Epoch: 30})
	})
	// A shortened many-small workload, where pipelining and concurrency
	// dominate.
	figDiskManySmall = sync.OnceValues(func() (*TuningResult, error) {
		sc := DiskScenario{Name: "many-small", Files: dataset.ManySmall(4000), DiskRate: 2e9, FileOverhead: 0.5}
		return TuneDisk(ANLtoUChicago(), sc, RunConfig{Seed: 3, Duration: 900})
	})
	// The bandwidth-bound regime: 8 x 2 GB.
	figDiskFewHuge = sync.OnceValues(func() (*TuningResult, error) {
		sc := DiskScenario{Name: "few-huge", Files: dataset.Uniform(8, 2<<30), DiskRate: 2e9, FileOverhead: 0.5}
		return TuneDisk(ANLtoUChicago(), sc, RunConfig{Seed: 4, Duration: 1800})
	})
	figThirdParty = sync.OnceValues(func() (*TuningResult, error) {
		return ThirdParty(ANLtoUChicago(), 64, 180, RunConfig{Seed: 21, Duration: 1440, Epoch: 30})
	})
	figCompareModel = sync.OnceValues(func() (*TuningResult, error) {
		return CompareModel(ANLtoTACC(), RunConfig{Seed: 23, Duration: 1800, Epoch: 30})
	})
	figJoint = sync.OnceValues(func() (*JointComparison, error) {
		return JointVsIndependent(quickRC())
	})
)

// dimNames names the coordinates of a tuned vector, in Space.Apply's
// order.
var dimNames = [...]string{"nc", "np", "pp"}

// traceMetrics records under prefix what the figures report of one
// tuner's trace: whole-run and steady-state (after t = steadyFrom; none
// when that is zero) throughput, restart overhead, the vector it ended
// on, files moved.
func traceMetrics(m map[string]float64, prefix string, tr *tuner.Trace, steadyFrom float64) {
	m[prefix+"/mean-MB/s"] = tr.MeanThroughput() / 1e6
	if steadyFrom > 0 {
		m[prefix+"/steady-MB/s"] = tr.SteadyThroughput(steadyFrom) / 1e6
	}
	if best := tr.MeanBestCase(); best > 0 {
		m[prefix+"/overhead-%"] = 100 * (1 - tr.MeanThroughput()/best)
	}
	for i, v := range tr.FinalX() {
		m[prefix+"/final-"+dimNames[i]] = float64(v)
	}
	if files := FilesMoved(tr); files > 0 {
		m[prefix+"/files"] = float64(files)
	}
}

// figureMetrics gathers every seeded run's metrics under one flat name
// space, run/tuner/metric.
func figureMetrics(t *testing.T) map[string]float64 {
	t.Helper()
	m := map[string]float64{}
	for _, run := range []struct {
		name       string
		result     func() (*TuningResult, error)
		steadyFrom float64
	}{
		{"fig5-free", figTuneFree, 600},
		{"fig5-cmp16", figTuneCmp16, 600},
		{"fig8-tune-both", figTuneBoth, 1200},
		{"fig10-heuristics", figHeuristics, 1200},
		// A dataset ends when its files run out: no steady window.
		{"disk-many-small", figDiskManySmall, 0},
		{"disk-few-huge", figDiskFewHuge, 0},
		{"third-party", figThirdParty, 960},
		{"compare-model", figCompareModel, 1200},
	} {
		res, err := run.result()
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		for name, tr := range res.Traces {
			traceMetrics(m, run.name+"/"+name, tr, run.steadyFrom)
		}
	}
	sim, err := figSimultaneous()
	if err != nil {
		t.Fatalf("fig11: %v", err)
	}
	uc, tc := sim.UChicago.MeanThroughput(), sim.TACC.MeanThroughput()
	m["fig11/uchicago-MB/s"] = uc / 1e6
	m["fig11/tacc-MB/s"] = tc / 1e6
	m["fig11/aggregate-MB/s"] = (uc + tc) / 1e6
	jc, err := figJoint()
	if err != nil {
		t.Fatalf("joint: %v", err)
	}
	for name, tr := range map[string]*tuner.Trace{
		"independent/uchicago": jc.Independent.UChicago,
		"independent/tacc":     jc.Independent.TACC,
		"joint/uchicago":       jc.JointUChicago,
		"joint/tacc":           jc.JointTACC,
	} {
		traceMetrics(m, "joint/"+name, tr, 0)
	}
	return m
}

// TestFigureMetricsGolden is the deterministic tier: every metric of
// every seeded figure run equals, bit for bit, the value committed in
// testdata/figures.golden.json (encoding/json writes a float64 as the
// shortest decimal that reads back to it). A changed MB/s on a seeded
// run is a behaviour change, not noise; one that is meant is recorded
// with
//
//	go test -v ./internal/experiment/ -run TestFigureMetricsGolden -update-golden
//
// and the old → new lines it logs go in the PR.
func TestFigureMetricsGolden(t *testing.T) {
	path := filepath.Join("testdata", "figures.golden.json")
	got := figureMetrics(t)
	want := map[string]float64{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	} else if !*updateGolden {
		t.Fatalf("golden fixture missing (run with -update-golden): %v", err)
	}

	show := func(m map[string]float64, k string) string {
		if v, ok := m[k]; ok {
			return fmt.Sprint(v)
		}
		return "(absent)"
	}
	var moved []string
	for k := range got {
		if v, ok := want[k]; !ok || v != got[k] {
			moved = append(moved, k)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			moved = append(moved, k)
		}
	}
	sort.Strings(moved)
	for _, k := range moved {
		line := fmt.Sprintf("%s: %s → %s", k, show(want, k), show(got, k))
		if *updateGolden {
			t.Log(line)
		} else {
			t.Error(line)
		}
	}
	if len(moved) == 0 {
		return
	}
	if !*updateGolden {
		t.Fatalf("%d of %d seeded figure metrics moved (golden → now); if the change is meant, rerun with -update-golden and name them in the PR", len(moved), len(got))
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
