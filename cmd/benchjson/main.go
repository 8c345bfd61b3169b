// benchjson converts `go test -bench` output on stdin into a JSON
// summary on stdout: benchmark name → ns/op, allocs/op, and any
// custom b.ReportMetric values (e.g. "dials/epoch", "MB/s"). CI runs
// it after the bench job and uploads the result as the BENCH_ci.json
// artifact, so regressions diff as one small file instead of raw logs.
//
// With -baseline FILE the current results are additionally gated
// against a committed baseline (a previous benchjson output):
// benchjson exits 1 when a tracked metric regresses by more than 20%
// over its baseline value. Only metrics where "bigger is worse" and
// the measurement is stable enough for CI are tracked — allocs/op,
// and custom metrics whose name contains "dials", "deadtime", or
// "syscalls". Each comparison also requires the absolute growth to
// clear a floor (2 allocs/op; 0.1 dials; 1 unit of deadtime or
// syscalls), so timer jitter on
// tiny values cannot flake the gate, while a warm path that starts
// dialing again is caught even from a zero baseline. Benchmarks are
// matched by name with the -N GOMAXPROCS suffix stripped, and only
// benchmarks present in both files are compared, so adding or
// removing benchmarks never trips the gate.
//
// With -ratio NUM,DEN,MAX benchjson gates one benchmark against another
// in the same run: it exits 1 when the median ns/op of NUM exceeds MAX
// times the median ns/op of DEN, taking the medians over every result
// line of each (run the benchmarks with -count N). That is a flatness
// check a committed baseline cannot give — CI uses it to hold
// BenchmarkCheckpointSave at 10000 recorded epochs within 3x of itself
// at 10.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime 1x -benchmem ./... | go run ./cmd/benchjson > BENCH_ci.json
//	go test -run '^$' -bench . -benchtime 1x -benchmem ./... | go run ./cmd/benchjson -baseline BENCH_baseline.json > BENCH_ci.json
//	go test -run '^$' -bench Save -benchtime 200x -count 5 ./internal/tuner/ | go run ./cmd/benchjson -ratio 'BenchmarkSave/n=10000,BenchmarkSave/n=10,3'
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"dstune/internal/stats"
)

// result is one benchmark's summary row.
type result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int64   `json:"iterations"`
	// Metrics holds custom b.ReportMetric values by unit name.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	baselinePath := flag.String("baseline", "", "committed benchjson output to gate regressions against")
	ratio := flag.String("ratio", "", "NUM,DEN,MAX: fail when benchmark NUM's median ns/op exceeds MAX times benchmark DEN's")
	flag.Parse()

	results := map[string]result{}
	// samples keeps every ns/op seen per benchmark (a -count N run
	// prints N lines), keyed without the GOMAXPROCS suffix.
	samples := map[string][]float64{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		name, r, ok := parseLine(sc.Text())
		if ok {
			results[name] = r
			key := procSuffix.ReplaceAllString(name, "")
			samples[key] = append(samples[key], r.NsPerOp)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	ordered := make(map[string]result, len(results))
	for _, n := range names {
		ordered[n] = results[n]
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(ordered); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	if *ratio != "" {
		if err := checkRatio(*ratio, samples); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	if *baselinePath == "" {
		return
	}
	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	baseline := map[string]result{}
	if err := json.Unmarshal(raw, &baseline); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *baselinePath, err)
		os.Exit(1)
	}
	if msgs := compare(baseline, results); len(msgs) > 0 {
		for _, m := range msgs {
			fmt.Fprintln(os.Stderr, "benchjson: regression:", m)
		}
		os.Exit(1)
	}
}

// checkRatio applies a -ratio NUM,DEN,MAX gate to the collected ns/op
// samples: an error when either benchmark is missing from the run or
// NUM's median exceeds MAX times DEN's.
func checkRatio(spec string, samples map[string][]float64) error {
	parts := strings.Split(spec, ",")
	if len(parts) != 3 {
		return fmt.Errorf("-ratio %q: want NUM,DEN,MAX", spec)
	}
	limit, err := strconv.ParseFloat(parts[2], 64)
	if err != nil || limit <= 0 {
		return fmt.Errorf("-ratio %q: MAX must be a positive number", spec)
	}
	num, den := samples[parts[0]], samples[parts[1]]
	if len(num) == 0 || len(den) == 0 {
		return fmt.Errorf("-ratio: the run has %d results for %s and %d for %s", len(num), parts[0], len(den), parts[1])
	}
	n, d := stats.Quantile(num, 0.5), stats.Quantile(den, 0.5)
	if n > limit*d {
		return fmt.Errorf("regression: %s median %.0f ns/op is %.2fx %s median %.0f ns/op, limit %gx", parts[0], n, n/d, parts[1], d, limit)
	}
	return nil
}

// parseLine reads one `go test -bench` result line, e.g.
//
//	BenchmarkSimEpoch-8  42  123456 ns/op  2048 B/op  12 allocs/op  0.5 dials/epoch
//
// Lines that are not benchmark results report ok=false. The -N GOMAXPROCS
// suffix is kept: it is part of the benchmark's identity in CI.
func parseLine(line string) (string, result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", result{}, false
	}
	r := result{Iterations: iters}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", result{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
			seen = true
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[fields[i+1]] = v
		}
	}
	if !seen {
		return "", result{}, false
	}
	return fields[0], r, true
}

// procSuffix is the -N GOMAXPROCS suffix go test appends to benchmark
// names; it is stripped when matching against the baseline so runner
// core counts don't defeat the comparison.
var procSuffix = regexp.MustCompile(`-\d+$`)

// trackedMetric reports whether a custom metric participates in the
// regression gate, and the absolute growth floor (in the metric's own
// unit) a regression must clear in addition to the relative slack.
func trackedMetric(name string) (floor float64, ok bool) {
	l := strings.ToLower(name)
	switch {
	case strings.Contains(l, "dials"):
		return 0.1, true
	case strings.Contains(l, "deadtime"):
		return 1.0, true
	case strings.Contains(l, "syscalls/gib"):
		// The zero-copy gate: a sendfile lease costs ~6 syscalls per
		// 32 MiB, so the baseline sits near 250/GiB and the userspace
		// fallback near 2200/GiB. The floor absorbs hint-level churn
		// (one extra syscall per lease is +32/GiB) while still
		// catching a pump that starts fragmenting leases — that
		// multiplies the figure, clearing any sub-100 floor.
		return 64, true
	case strings.Contains(l, "syscalls"):
		return 1.0, true
	}
	return 0, false
}

// exceeded applies the gate: a regression is a value both more than
// 20% over baseline and more than the absolute floor above it.
func exceeded(cur, base, floor float64) bool {
	return cur > base*1.20 && cur-base > floor
}

// compare gates cur against base, returning one message per tracked
// regression. Only benchmarks present in both (modulo the GOMAXPROCS
// suffix) are compared.
func compare(base, cur map[string]result) []string {
	norm := func(m map[string]result) map[string]result {
		out := make(map[string]result, len(m))
		for name, r := range m {
			out[procSuffix.ReplaceAllString(name, "")] = r
		}
		return out
	}
	b, c := norm(base), norm(cur)
	names := make([]string, 0, len(c))
	for name := range c {
		names = append(names, name)
	}
	sort.Strings(names)
	var msgs []string
	for _, name := range names {
		cr := c[name]
		br, ok := b[name]
		if !ok {
			continue
		}
		if exceeded(float64(cr.AllocsPerOp), float64(br.AllocsPerOp), 2) {
			msgs = append(msgs, fmt.Sprintf("%s: allocs/op %d, baseline %d", name, cr.AllocsPerOp, br.AllocsPerOp))
		}
		keys := make([]string, 0, len(cr.Metrics))
		for k := range cr.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			floor, tracked := trackedMetric(k)
			if !tracked {
				continue
			}
			bv, ok := br.Metrics[k]
			if !ok {
				continue
			}
			if exceeded(cr.Metrics[k], bv, floor) {
				msgs = append(msgs, fmt.Sprintf("%s: %s %g, baseline %g", name, k, cr.Metrics[k], bv))
			}
		}
	}
	return msgs
}
