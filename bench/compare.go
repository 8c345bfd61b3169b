package main

import (
	"errors"
	"fmt"
	"io"
	"sort"
)

// verdict is what -compare says about one metric on one workload.
type verdict string

// The three verdicts. A difference smaller than the runs' own spread
// proves nothing either way, so a metric whose spread is wider than its
// bound is unresolved, not unchanged.
const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
)

// comparison is one row of -compare's output.
type comparison struct {
	Workload, Metric string
	// A and B are the medians of the two files; NA and NB the run
	// counts; SpreadA and SpreadB the quartile distances over the
	// medians.
	A, B             float64
	NA, NB           int
	SpreadA, SpreadB float64
	// Worse is by how much B is worse than A, as a share of A
	// (negative = better).
	Worse   float64
	Bound   float64
	Verdict verdict
}

// judge applies one end-to-end metric's bound and direction to the
// values of two sets of runs.
func judge(def metricDef, a, b []float64) comparison {
	c := comparison{Metric: def.Name, A: median(a), B: median(b), NA: len(a), NB: len(b),
		SpreadA: spread(a), SpreadB: spread(b), Bound: def.Bound}
	if c.A != 0 {
		c.Worse = (c.B - c.A) / c.A
		if def.Better == "higher" {
			c.Worse = -c.Worse
		}
	}
	switch {
	case len(a) > 1 && c.SpreadA > def.Bound, len(b) > 1 && c.SpreadB > def.Bound:
		c.Verdict = verdictUnresolved
	case c.Worse > def.Bound:
		c.Verdict = verdictRegressed
	default:
		c.Verdict = verdictOK
	}
	return c
}

// compareResults judges every end-to-end metric of every workload that
// both sets of untraced runs cover, one row per pair.
func compareResults(a, b []result) []comparison {
	collect := func(rs []result) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, r := range rs {
			if r.Trace {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], v.Value)
			}
		}
		return out
	}
	va, vb := collect(a), collect(b)
	var rows []comparison
	for _, w := range workloads {
		for _, def := range endToEnd {
			xa, xb := va[w.name][def.Name], vb[w.name][def.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			c := judge(def, xa, xb)
			c.Workload = w.name
			rows = append(rows, c)
		}
	}
	return rows
}

// exactMetrics are the counts that identical code must reproduce
// exactly for equal seeds; -compare checks them run by run.
var exactMetrics = []string{"sim.trace_digest", "checkpoint.bytes_total", "service.metrics_series", "tuned_gain_x"}

// compareExact returns one line per exact metric whose value differs
// between the traced runs of a and b that share workload and seed.
func compareExact(a, b []result) []string {
	type key struct {
		workload string
		seed     uint64
	}
	index := map[key]result{}
	for _, r := range a {
		if r.Trace {
			index[key{r.Workload, r.Seed}] = r
		}
	}
	var out []string
	for _, rb := range b {
		ra, ok := index[key{rb.Workload, rb.Seed}]
		if !rb.Trace || !ok {
			continue
		}
		for _, name := range exactMetrics {
			if x, y := ra.Metrics[name].Value, rb.Metrics[name].Value; x != y {
				out = append(out, fmt.Sprintf("%s seed %d: %s differs: %v vs %v", rb.Workload, rb.Seed, name, x, y))
			}
		}
	}
	sort.Strings(out)
	return out
}

// compareFiles implements -compare A B: B is judged against A.
func compareFiles(w io.Writer, args []string) error {
	if len(args) != 2 {
		return errors.New("-compare takes two result files written with -out")
	}
	a, err := readResults(args[0])
	if err != nil {
		return err
	}
	b, err := readResults(args[1])
	if err != nil {
		return err
	}
	rows := compareResults(a, b)
	if len(rows) == 0 {
		return errors.New("the two files share no untraced workload")
	}
	fmt.Fprintf(w, "%-20s %-16s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "A median", "B median", "spread A", "spread B", "B worse", "bound", "verdict")
	regressed := 0
	for _, c := range rows {
		fmt.Fprintf(w, "%-20s %-16s %14.6g %14.6g %7.1f%% %7.1f%% %+7.1f%% %5.0f%%  %s (n=%d,%d)\n",
			c.Workload, c.Metric, c.A, c.B, 100*c.SpreadA, 100*c.SpreadB, 100*c.Worse, 100*c.Bound, c.Verdict, c.NA, c.NB)
		if c.Verdict == verdictRegressed {
			regressed++
		}
	}
	exact := compareExact(a, b)
	for _, line := range exact {
		fmt.Fprintln(w, "exact count differs:", line)
	}
	if regressed > 0 || len(exact) > 0 {
		return fmt.Errorf("%d metric(s) regressed, %d exact count(s) differ", regressed, len(exact))
	}
	return nil
}
