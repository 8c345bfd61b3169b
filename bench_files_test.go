package dstune_test

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// tracedEndToEnd are the end-to-end metrics a traced run measures again
// under tracing and keeps for information: every workload's set-up and
// resident set, and the figure set's simulator speed.
var tracedEndToEnd = map[string][]string{
	"":            {"setup_s", "peak_rss_MiB"},
	"sim-figures": {"sim_vsec_per_s"},
}

// TestBenchFiles parses every committed BENCH_*.json, the runs a perf
// claim leaves behind: each line is one run `go run ./bench -out` wrote,
// of a workload BENCHMARK.json declares, and carries that workload's
// end-to-end metrics as finite numbers. An untraced run carries every
// one BENCHMARK.json declares. A traced run carries every per-layer one,
// the end-to-end ones it measures again (tracedEndToEnd), and the rest
// through the untraced run of its workload and seed, which the file
// must hold.
func TestBenchFiles(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named []struct{ Name string }
	var decl struct {
		Workloads named `json:"workloads"`
		EndToEnd  named `json:"end_to_end"`
		PerLayer  named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	workloads := map[string]bool{}
	for _, w := range decl.Workloads {
		workloads[w.Name] = true
	}
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	type values map[string]struct{ Value *float64 }
	type run struct {
		Workload      string
		Seed          uint64
		Trace         bool
		Metrics, Info values
	}
	type key struct {
		workload string
		seed     uint64
	}
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		var runs []run
		untraced := map[key]bool{}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var r run
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				t.Errorf("%s:%d: %v", name, len(runs)+1, err)
			}
			runs = append(runs, r)
			if !r.Trace {
				untraced[key{r.Workload, r.Seed}] = true
			}
		}
		if err := sc.Err(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		f.Close()
		if len(runs) == 0 {
			t.Errorf("%s holds no runs", name)
		}
		for i, r := range runs {
			at := func(format string, args ...any) {
				t.Helper()
				t.Errorf("%s:%d: %s seed %d: "+format, append([]any{name, i + 1, r.Workload, r.Seed}, args...)...)
			}
			finite := func(vs values, m string) {
				t.Helper()
				if v := vs[m].Value; v == nil || math.IsNaN(*v) || math.IsInf(*v, 0) {
					at("no finite %s", m)
				}
			}
			if !workloads[r.Workload] {
				at("workload is not in BENCHMARK.json")
			}
			if !r.Trace {
				for _, m := range decl.EndToEnd {
					finite(r.Metrics, m.Name)
				}
				continue
			}
			for _, m := range decl.PerLayer {
				finite(r.Metrics, m.Name)
			}
			for _, m := range append(tracedEndToEnd[""], tracedEndToEnd[r.Workload]...) {
				finite(r.Info, m)
			}
			if !untraced[key{r.Workload, r.Seed}] {
				at("traced run has no untraced run beside it")
			}
		}
	}
}
