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
	"strings"
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

// outcome returns the pinned outcome of study key.
func outcome(t *testing.T, key string) *Outcome {
	t.Helper()
	out, err := study(t, key).Run(pinned)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// traceOf returns the trace out holds under key.
func traceOf(t *testing.T, out *Outcome, key string) *tuner.Trace {
	t.Helper()
	tr, ok := out.Traces[key]
	if !ok || tr == nil {
		t.Fatalf("outcome holds no trace %q", key)
	}
	return tr
}

// metric returns the metric out holds under key.
func metric(t *testing.T, out *Outcome, key string) float64 {
	t.Helper()
	v, ok := out.Metrics[key]
	if !ok {
		t.Fatalf("outcome holds no metric %q", key)
	}
	return v
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

// simulated returns, by key, the pinned outcome of every study tier-1
// simulates: all but the by-hand ones.
func simulated(t *testing.T) map[string]*Outcome {
	t.Helper()
	outs := map[string]*Outcome{}
	for _, s := range Studies() {
		if s.byHand {
			continue
		}
		out, err := s.Run(pinned)
		if err != nil {
			t.Fatal(err)
		}
		outs[s.Key] = out
	}
	return outs
}

// textDigest is the FNV-1a of what a door prints of an outcome as text:
// its configuration line and its text.
func textDigest(out *Outcome) uint64 {
	h := fnv.New64a()
	h.Write([]byte(out.Config + out.Text))
	return h.Sum64()
}

// chartsDigest is the FNV-1a of what -csv and -html draw of an outcome:
// every chart's title, unit and x axis, and every series' name and
// points.
func chartsDigest(out *Outcome) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, c := range out.Charts {
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00", c.Title, c.Unit, c.X)
		for _, s := range c.Series {
			fmt.Fprintf(h, "%s\x00", s.Name)
			for _, p := range s.Points {
				for _, f := range []float64{p.T, p.V} {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
					h.Write(b[:])
				}
			}
		}
	}
	return h.Sum64()
}

// digestMask keeps 48 bits of a digest: what a float64 holds exactly.
const digestMask = 1<<48 - 1

// figureMetrics gathers the Metrics of every study tier-1 simulates
// under one flat name space, plus
//   - sim/trace-digest: the sum of traceDigest over every distinct trace
//     behind them, so that a change to any epoch of any trajectory moves
//     the golden even when it leaves every mean where it was;
//   - text/KEY and charts/KEY: textDigest and chartsDigest of study KEY,
//     so that what the doors print is held as well as what they measure.
func figureMetrics(t *testing.T) map[string]float64 {
	t.Helper()
	m := map[string]float64{}
	seen := map[*tuner.Trace]bool{}
	var digest uint64
	for key, out := range simulated(t) {
		for k, v := range out.Metrics {
			m[k] = v
		}
		for _, tr := range out.Traces {
			if !seen[tr] {
				seen[tr] = true
				digest += traceDigest(tr)
			}
		}
		m["text/"+key] = float64(textDigest(out) & digestMask)
		m["charts/"+key] = float64(chartsDigest(out) & digestMask)
	}
	m["sim/trace-digest"] = float64(digest & digestMask)
	return m
}

// TestEveryStrategyIsStudied holds the roster to the evaluation: every
// registry row is the Tuner of some trace behind the pinned studies —
// the traces the golden's digest walks. A strategy no study runs is one
// no number in the repository defends.
func TestEveryStrategyIsStudied(t *testing.T) {
	studied := map[string]bool{}
	for _, out := range simulated(t) {
		for _, tr := range out.Traces {
			studied[tr.Tuner] = true
		}
	}
	for _, name := range tuner.StrategyNames() {
		if !studied[name] {
			t.Errorf("%s runs in no study: study it or delete it", name)
		}
	}
}

// TestTracesAreNamedLikeMetrics holds the one naming rule of an
// outcome: every trace is keyed by a prefix its metrics carry, so a
// trace and the numbers it was scored into are found by one name.
func TestTracesAreNamedLikeMetrics(t *testing.T) {
	for key, out := range simulated(t) {
		for name := range out.Traces {
			named := false
			for m := range out.Metrics {
				named = named || strings.HasPrefix(m, name)
			}
			if !named {
				t.Errorf("study %s: trace %q prefixes none of its metrics", key, name)
			}
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
