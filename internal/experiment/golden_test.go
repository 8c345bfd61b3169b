package experiment

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"dstune/internal/tuner"
)

// updateGolden rewrites testdata/figures.golden.json from the current
// simulator, printing old → new for every metric that moved.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/figures.golden.json")

// pinned holds the seeded runs behind every study at its pinned
// configuration. Each is simulated once per test binary, by whichever
// test asks first: the shape tests assert the paper's claims on them,
// TestFigureMetricsGolden pins their numbers and TestScorecard their
// verdicts, so neither costs a simulation of its own.
var pinned = NewRuns(Config{})

// study returns the Studies entry named key.
func study(t *testing.T, key string) Study {
	t.Helper()
	for _, s := range Studies() {
		if s.Key == key {
			return s
		}
	}
	t.Fatalf("no study %q", key)
	return Study{}
}

// raw returns what the pinned run of study key was rendered from.
func raw[T any](t *testing.T, key string) T {
	t.Helper()
	out, err := study(t, key).Run(pinned)
	if err != nil {
		t.Fatal(err)
	}
	return out.Raw.(T)
}

// sweepCell returns cell i (Fig5Loads order) of the pinned sweep.
func sweepCell(t *testing.T, i int) *TuningResult {
	t.Helper()
	return raw[[]*TuningResult](t, "5")[i]
}

// tracesOf lists the traces behind a study's Raw.
func tracesOf(t *testing.T, raw any) []*tuner.Trace {
	var out []*tuner.Trace
	result := func(res *TuningResult) {
		for _, tr := range res.Traces {
			out = append(out, tr)
		}
	}
	switch v := raw.(type) {
	case nil, *Fig1Result, []Improvement:
	case *TuningResult:
		result(v)
	case []*TuningResult:
		for _, res := range v {
			result(res)
		}
	case []*SimultaneousResult:
		for _, res := range v {
			out = append(out, res.UChicago, res.TACC)
		}
	case *JointComparison:
		out = append(out, v.Independent.UChicago, v.Independent.TACC, v.JointUChicago, v.JointTACC)
	case *DynamicLoadResult:
		for _, c := range v.Cells {
			out = append(out, c.Trace)
		}
	case *WarmStartResult:
		for _, c := range v.Cells {
			out = append(out, c.Cold, c.Warm)
		}
	default:
		t.Fatalf("tracesOf: unhandled %T", raw)
	}
	return out
}

// traceDigest is the FNV-1a of one trace's per-epoch (X, Start, End,
// Bytes, Throughput, DeadTime).
func traceDigest(tr *tuner.Trace) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, r := range tr.Results {
		for _, x := range r.X {
			put(uint64(x))
		}
		for _, f := range []float64{r.Report.Start, r.Report.End, r.Report.Bytes, r.Report.Throughput, r.Report.DeadTime} {
			put(math.Float64bits(f))
		}
	}
	return h.Sum64()
}

// simulated returns the pinned outcome of every study tier-1 simulates:
// all but the by-hand ones.
func simulated(t *testing.T) []*Outcome {
	t.Helper()
	var outs []*Outcome
	for _, s := range Studies() {
		if s.ByHand {
			continue
		}
		out, err := s.Run(pinned)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
	}
	return outs
}

// figureMetrics gathers the Metrics of every study tier-1 simulates
// under one flat name space, plus sim/trace-digest: the sum of
// traceDigest over every distinct trace behind them, so that a change
// to any epoch of any trajectory moves the golden even when it leaves
// every mean where it was. 48 bits of it: what a float64 holds exactly.
func figureMetrics(t *testing.T) map[string]float64 {
	t.Helper()
	m := map[string]float64{}
	seen := map[*tuner.Trace]bool{}
	var digest uint64
	for _, out := range simulated(t) {
		for k, v := range out.Metrics {
			m[k] = v
		}
		for _, tr := range tracesOf(t, out.Raw) {
			if !seen[tr] {
				seen[tr] = true
				digest += traceDigest(tr)
			}
		}
	}
	m["sim/trace-digest"] = float64(digest & (1<<48 - 1))
	return m
}

// TestEveryStrategyIsStudied holds the roster to the evaluation: every
// registry row is the Tuner of some trace behind the pinned studies —
// the traces the golden's digest walks. A strategy no study runs is one
// no number in the repository defends.
func TestEveryStrategyIsStudied(t *testing.T) {
	studied := map[string]bool{}
	for _, out := range simulated(t) {
		for _, tr := range tracesOf(t, out.Raw) {
			studied[tr.Tuner] = true
		}
	}
	for _, name := range tuner.StrategyNames() {
		if !studied[name] {
			t.Errorf("%s runs in no study: study it or delete it", name)
		}
	}
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
