package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a workload re-executes itself as the gridftpd child.
func TestMain(m *testing.M) {
	if os.Getenv(roleEnv) == "gridftpd" {
		if err := roleGridftpd(); err != nil {
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

func TestTailLevel(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 0}, {1, 0}, {19, 0}, {39, 0}, // too few samples for any tail
		{40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {4000, 99},
	} {
		if got := tailLevel(tc.n); got != tc.want {
			t.Errorf("tailLevel(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		name string
		xs   []float64
		p    int
		want float64
		ok   bool
	}{
		{"empty", nil, 50, 0, false},
		{"median of one", []float64{7}, 50, 7, true},
		{"median of an even count", []float64{4, 1, 3, 2}, 50, 2.5, true},
		{"no p90 below 100 samples", ramp(19), 90, 0, false},
		{"no p90 at 99 samples", ramp(99), 90, 0, false},
		{"p90 at 100 samples", ramp(100), 90, 90.1, true},
		{"no p99 at 999 samples", ramp(999), 99, 0, false},
		{"p99 at 1000 samples", ramp(1000), 99, 990.01, true},
	} {
		got, ok := percentile(tc.xs, tc.p)
		if ok != tc.ok || math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: percentile = %v, %v; want %v, %v", tc.name, got, ok, tc.want, tc.ok)
		}
	}
}

// TestQuartiles pins the quartiles to what Python's
// statistics.quantiles(xs, n=4) returns, since that is how the driver
// computes the spread.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{nil, 0, 0},
		{[]float64{5}, 5, 5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5, 11}, 3, 9},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want 1 (5.5 between the quartiles over a median of 5.5)", got)
	}
	if got := spread([]float64{0, 0}); !math.IsInf(got, 1) {
		t.Errorf("spread around a zero median = %v, want +Inf", got)
	}
}

func TestSplitSelf(t *testing.T) {
	spans := []span{
		{Name: "job", Start: 0, End: 100, Parent: -1},
		{Name: "service.submit", Start: 0, End: 10, Parent: 0},
		{Name: "xfer.run", Start: 20, End: 50, Parent: 0},
		{Name: "xfer.run", Start: 60, End: 90, Parent: 0},
		{Name: "service.first_epoch", Start: 10, End: 55, Parent: 0, Mark: true}, // overlaps: not counted
		{Name: "tuner.step", Start: 200, End: 300, Parent: -1},
		{Name: "strategy.propose", Start: 200, End: 205, Parent: 5},
		{Name: "xfer.run", Start: 205, End: 280, Parent: 5},
		{Name: "checkpoint.save", Start: 285, End: 300, Parent: 5},
		{Name: "unfinished", Start: 400, End: -1, Parent: -1},
	}
	st := splitSelf(spans)
	want := map[string]int64{"job": 30, "service.submit": 10, "xfer.run": 135, "tuner.step": 5, "strategy.propose": 5, "checkpoint.save": 15}
	for name, w := range want {
		if st.Self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, st.Self[name], w)
		}
	}
	if len(st.Self) != len(want) {
		t.Errorf("self has %d names, want %d: %v", len(st.Self), len(want), st.Self)
	}
	if st.Root != 200 || st.sum() != 200 || st.Escaped != 0 {
		t.Errorf("root %d, sum %d, escaped %d; want 200, 200, 0", st.Root, st.sum(), st.Escaped)
	}

	// Overlapping siblings are covered once in the parent but counted
	// twice across the children, and a child outside its parent is
	// reported: both are what the run-time check catches.
	bad := splitSelf([]span{
		{Name: "job", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 60, Parent: 0},
		{Name: "b", Start: 40, End: 120000, Parent: 0},
	})
	if bad.Self["job"] != 10 || bad.Escaped != 1 || bad.sum() == bad.Root {
		t.Errorf("overlap case: job self %d, escaped %d, sum %d vs root %d", bad.Self["job"], bad.Escaped, bad.sum(), bad.Root)
	}
}

func TestJudge(t *testing.T) {
	higher := metricDef{Name: "goodput_MBps", Better: "higher", Bound: 0.1}
	lower := metricDef{Name: "setup_s", Better: "lower", Bound: 0.1}
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m, m, m * 1.01} }
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b []float64
		want verdict
	}{
		{"same", higher, steady(100), steady(100), verdictOK},
		{"higher-is-better got better", higher, steady(100), steady(150), verdictOK},
		{"higher-is-better within bound", higher, steady(100), steady(92), verdictOK},
		{"higher-is-better regressed", higher, steady(100), steady(85), verdictRegressed},
		{"lower-is-better within bound", lower, steady(1), steady(1.08), verdictOK},
		{"lower-is-better regressed", lower, steady(1), steady(1.2), verdictRegressed},
		{"noisy parent", higher, []float64{60, 80, 100, 120, 140}, steady(85), verdictUnresolved},
		{"noisy change", lower, steady(1), []float64{0.6, 0.8, 1, 1.2, 1.4}, verdictUnresolved},
		{"single runs", higher, []float64{100}, []float64{80}, verdictRegressed},
	} {
		if got := judge(tc.def, tc.a, tc.b).Verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, goodput float64, digest float64) string {
		path := filepath.Join(dir, name)
		for seed := uint64(1); seed <= 3; seed++ {
			r := newResult("bulk-loopback", seed, 10, false)
			for _, d := range endToEnd {
				r.set(d.Name, 1, 0)
			}
			r.set("goodput_MBps", goodput+float64(seed), 0)
			r.finish()
			if err := r.appendTo(path); err != nil {
				t.Fatal(err)
			}
			tr := newResult("bulk-loopback", seed, 10, true)
			tr.set("sim.trace_digest", digest, 0)
			tr.finish()
			if err := tr.appendTo(path); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, same, slow, drift := write("a", 1000, 7), write("same", 1001, 7), write("slow", 700, 7), write("drift", 1000, 8)
	var out bytes.Buffer
	if err := compareFiles(&out, []string{a, same}); err != nil {
		t.Errorf("equal runs: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "goodput_MBps") || strings.Contains(out.String(), string(verdictRegressed)) {
		t.Errorf("equal runs printed:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(&out, []string{a, slow}); err == nil || !strings.Contains(out.String(), string(verdictRegressed)) {
		t.Errorf("30%% less goodput: err %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, []string{a, drift}); err == nil || !strings.Contains(out.String(), "sim.trace_digest differs") {
		t.Errorf("changed digest: err %v\n%s", err, out.String())
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric catalogue in
// step: the driver refuses a run whose metrics differ from the file's.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != baseSeconds {
		t.Errorf("run_seconds = %d, the workloads are sized for %d", doc.RunSeconds, baseSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q (%q), implemented %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	check := func(kind string, declared []metric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d metrics declared, %d implemented", kind, len(declared), len(defs))
		}
		for i, d := range defs {
			m := declared[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: declared %+v, implemented %s %s %s", kind, i, m, d.Name, d.Unit, d.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s %s: declared bound %v, implemented %v (must be in (0, 0.25])", kind, d.Name, m.Bound, d.Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %s is used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestQuick runs a twentieth of every workload, untraced and traced,
// through the same entry point the driver uses: it keeps the harness
// compiling, the gridftpd re-exec working and every output check
// passing, without measuring anything. Under the race detector it keeps
// to the traced runs of daemon-churn (decorators called from every
// shard goroutine) and files-loopback (gridftpd child, pump, engine
// pass): that is where the benchmark's own goroutines share memory, and
// a traced run begins with the untraced pass anyway.
func TestQuick(t *testing.T) {
	out := filepath.Join(t.TempDir(), "results.jsonl")
	runs := 0
	for _, w := range workloads {
		if raceEnabled && w.name != "daemon-churn" && w.name != "files-loopback" {
			continue
		}
		for _, trace := range []bool{false, true} {
			if raceEnabled && !trace {
				continue
			}
			w, trace := w, trace
			runs++
			name := w.name + "/untraced"
			if trace {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				var report bytes.Buffer
				if err := runOne(&report, w.name, 7, baseSeconds, trace, true, out, t.TempDir(), t.TempDir()); err != nil {
					t.Log(report.String())
					t.Fatal(err)
				}
			})
		}
	}
	t.Cleanup(func() {
		results, err := readResults(out)
		if err != nil {
			t.Error(err)
			return
		}
		if len(results) != runs {
			t.Errorf("%d results recorded, want %d", len(results), runs)
		}
		for _, r := range results {
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, %d failed of %d", r.Workload, r.Trace, r.Correct, r.Failed, r.Attempted)
			}
		}
	})
}
