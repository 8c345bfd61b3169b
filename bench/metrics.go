package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// metricDef declares one metric: the name later issues claim against,
// its unit, which direction is better and — for end-to-end metrics —
// the share of the parent's median by which it may worsen before a
// change counts as a regression. BENCHMARK.json repeats the first four
// fields; a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only
	// Layer is the module a per-layer metric belongs to.
	Layer string
	// Help says how the number is obtained.
	Help string
}

// endToEnd are the metrics a user of the system would see. Every
// workload reports every one of them on every untraced run, so each is
// defined for all five workloads; what it reads on each is spelled out
// in README.md.
var endToEnd = []metricDef{
	{Name: "goodput_MBps", Unit: "MB/s", Better: "higher", Bound: 0.25,
		Help: "bytes credited to the jobs (receiver-confirmed on sockets, simulated on the fabric) / wall"},
	{Name: "cpu_s_per_GiB", Unit: "s/GiB", Better: "lower", Bound: 0.25,
		Help: "(bench process CPU + gridftpd child CPU over the timed pass) / GiB credited"},
	{Name: "epochs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Help: "settled control epochs / wall"},
	{Name: "sim_vsec_per_s", Unit: "s/s", Better: "higher", Bound: 0.25,
		Help: "transfer-clock seconds advanced / wall second (virtual on the fabric; on sockets the share of wall spent inside epochs)"},
	{Name: "peak_rss_MiB", Unit: "MiB", Better: "lower", Bound: 0.25,
		Help: "sustained peak of the resident set: 99th percentile of 10 ms samples over the timed pass, plus the gridftpd child's VmHWM"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Help: "median of three full set-ups: state directory, daemon, gridftpd child, dataset parse, warm-up"},
}

// perLayer are the metrics of single layers, reported by the traced
// run. A workload that bypasses a layer reports 0 for it: that is the
// "flat on" prediction made visible.
var perLayer = []metricDef{
	// What the daemon's clients see, beyond the end-to-end set.
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Layer: "service", Help: "jobs reaching done / wall"},
	{Name: "job_latency_ms_p50", Unit: "ms", Better: "lower", Layer: "service", Help: "POST sent -> terminal state observed"},
	{Name: "job_latency_ms_p90", Unit: "ms", Better: "lower", Layer: "service", Help: "same, 90th percentile (needs 100 jobs)"},
	{Name: "service.submit_ms_p50", Unit: "ms", Better: "lower", Layer: "service", Help: "POST -> 201: admission + journal"},
	{Name: "service.submit_ms_p90", Unit: "ms", Better: "lower", Layer: "service", Help: "same, 90th percentile (needs 100 jobs)"},
	{Name: "service.first_epoch_ms_p50", Unit: "ms", Better: "lower", Layer: "service", Help: "201 -> first poll with epochs >= 1: queue wait + buildRuntime + first step"},
	{Name: "service.status_us", Unit: "us", Better: "lower", Layer: "service", Help: "median GET /jobs/{id}"},
	{Name: "service.self_ms_per_job", Unit: "ms", Better: "lower", Layer: "service", Help: "job span minus its service.submit and xfer.run spans, per job"},
	{Name: "service.metrics_series", Unit: "count", Better: "lower", Layer: "service", Help: "sample lines in GET /metrics after the last job"},
	{Name: "service.journal_append_us", Unit: "us", Better: "lower", Layer: "service", Help: "probe: Journal.Append + Remove, median"},
	// The epoch engine.
	{Name: "epoch_overhead_ms_p50", Unit: "ms", Better: "lower", Layer: "tuner", Help: "period between consecutive epoch ends minus the nominal epoch (sockets: observer events; fabric: wall per epoch)"},
	{Name: "epoch_overhead_ms_p90", Unit: "ms", Better: "lower", Layer: "tuner", Help: "same, 90th percentile (needs 100 epochs)"},
	{Name: "tuner.step_ms_p50", Unit: "ms", Better: "lower", Layer: "tuner", Help: "SessionRuntime.Step"},
	{Name: "tuner.step_ms_p90", Unit: "ms", Better: "lower", Layer: "tuner", Help: "same, 90th percentile (needs 100 epochs)"},
	{Name: "tuner.self_us_per_epoch", Unit: "us", Better: "lower", Layer: "tuner", Help: "step minus strategy, xfer.run and checkpoint.save spans"},
	{Name: "strategy.propose_us", Unit: "us", Better: "lower", Layer: "tuner.strategy", Help: "median Strategy.Propose"},
	{Name: "strategy.observe_us", Unit: "us", Better: "lower", Layer: "tuner.strategy", Help: "median Strategy.Observe"},
	{Name: "strategy.snapshot_us", Unit: "us", Better: "lower", Layer: "tuner.strategy", Help: "median Strategy.Snapshot"},
	{Name: "checkpoint.save_ms_at_10", Unit: "ms", Better: "lower", Layer: "tuner.checkpoint", Help: "FileCheckpoint.Save, median of the 11 saves around epoch 10"},
	{Name: "checkpoint.save_ms_at_1000", Unit: "ms", Better: "lower", Layer: "tuner.checkpoint", Help: "same around epoch 1000"},
	{Name: "checkpoint.save_ms_at_2000", Unit: "ms", Better: "lower", Layer: "tuner.checkpoint", Help: "same around epoch 2000"},
	{Name: "checkpoint.bytes_total", Unit: "bytes", Better: "lower", Layer: "tuner.checkpoint", Help: "sum of the checkpoint file's size after each save"},
	{Name: "checkpoint.share_pct", Unit: "%", Better: "lower", Layer: "tuner.checkpoint", Help: "sum of save spans / sum of step spans"},
	// Observation and knowledge planes.
	{Name: "obs.epoch_end_ns", Unit: "ns", Better: "lower", Layer: "obs", Help: "probe: SessionObs.EpochEnd"},
	{Name: "obs.scrape_ms", Unit: "ms", Better: "lower", Layer: "obs", Help: "GET /metrics after the last job"},
	{Name: "history.add_us", Unit: "us", Better: "lower", Layer: "history", Help: "probe: Store.Add on a file store of 10k records"},
	{Name: "history.lookup_us", Unit: "us", Better: "lower", Layer: "history", Help: "probe: Store.Lookup at 10k records"},
	// The simulator.
	{Name: "xfer.run_ms_p50", Unit: "ms", Better: "lower", Layer: "xfer", Help: "median Transferer.Run wall"},
	{Name: "xfer.fabric_step_us", Unit: "us", Better: "lower", Layer: "xfer", Help: "probe: Sim.Run of 30 s epochs at nc=8 np=8 under tfr=16 cmp=16, per fabric step"},
	{Name: "xfer.allocs_per_vsec", Unit: "count", Better: "lower", Layer: "xfer", Help: "heap allocations over the figure pass / virtual second"},
	{Name: "xfer.alloc_bytes_per_vsec", Unit: "bytes", Better: "lower", Layer: "xfer", Help: "heap bytes allocated over the figure pass / virtual second"},
	{Name: "netem.step_ns_16", Unit: "ns", Better: "lower", Layer: "netem", Help: "probe: Path.Step with 16 streams"},
	{Name: "netem.step_ns_512", Unit: "ns", Better: "lower", Layer: "netem", Help: "probe: Path.Step with 512 streams"},
	{Name: "endpoint.allocate_ns_64", Unit: "ns", Better: "lower", Layer: "endpoint", Help: "probe: Host.Allocate with 64 processes"},
	{Name: "endpoint.allocate_allocs_64", Unit: "count", Better: "lower", Layer: "endpoint", Help: "probe: heap allocations per Host.Allocate"},
	{Name: "experiment.tune_concurrency_s", Unit: "s", Better: "lower", Layer: "experiment", Help: "wall of the five TuneConcurrency calls of a pass, median over passes"},
	{Name: "experiment.tune_both_s", Unit: "s", Better: "lower", Layer: "experiment", Help: "wall of the two TuneBoth calls"},
	{Name: "experiment.compare_heuristics_s", Unit: "s", Better: "lower", Layer: "experiment", Help: "wall of CompareHeuristics"},
	{Name: "experiment.simultaneous_s", Unit: "s", Better: "lower", Layer: "experiment", Help: "wall of Simultaneous"},
	{Name: "tuned_gain_x", Unit: "ratio", Better: "higher", Layer: "experiment", Help: "mean over the Fig5 loads of nm-tuner / default mean throughput"},
	{Name: "sim.trace_digest", Unit: "count", Better: "higher", Layer: "experiment", Help: "first 48 bits of SHA-256 over every returned trace; equal seeds must give equal digests"},
	// The real-socket data plane.
	{Name: "files_per_s", Unit: "1/s", Better: "higher", Layer: "gridftp", Help: "files completed / wall"},
	{Name: "gridftp.run_overhead_ms_p50", Unit: "ms", Better: "lower", Layer: "gridftp", Help: "Client.Run wall minus the nominal epoch, full epochs"},
	{Name: "gridftp.dead_time_ms_p50", Unit: "ms", Better: "lower", Layer: "gridftp", Help: "Report.DeadTime: ADJ + dial delta"},
	{Name: "gridftp.reconcile_ms_p50", Unit: "ms", Better: "lower", Layer: "gridftp", Help: "run wall minus DeadTime minus epoch"},
	{Name: "gridftp.stat_rtt_us", Unit: "us", Better: "lower", Layer: "gridftp", Help: "probe: Client.ServerReceived on a warm idle client"},
	{Name: "gridftp.dials_per_epoch", Unit: "count", Better: "lower", Layer: "gridftp", Help: "Report.Dials / epochs"},
	{Name: "gridftp.cold_setup_ms", Unit: "ms", Better: "lower", Layer: "gridftp", Help: "probe: DeadTime of ColdStart epochs at P streams"},
	{Name: "gridftp.client_cpu_s_per_GiB", Unit: "s/GiB", Better: "lower", Layer: "gridftp", Help: "bench process CPU over the engine pass / GiB"},
	{Name: "gridftp.syscalls_per_file", Unit: "count", Better: "lower", Layer: "gridftp", Help: "Report.Syscalls / files"},
	{Name: "gridftp.first_byte_lag_ms_p50", Unit: "ms", Better: "lower", Layer: "gridftp", Help: "Report.FirstByteLag"},
	{Name: "gridftp.manifest_ms", Unit: "ms", Better: "lower", Layer: "gridftp", Help: "first epoch's DeadTime: MANIFEST of the whole dataset"},
	{Name: "gridftpd.cpu_s_per_GiB", Unit: "s/GiB", Better: "lower", Layer: "gridftpd", Help: "gridftpd child CPU / GiB"},
	{Name: "gridftpd.rss_MiB", Unit: "MiB", Better: "lower", Layer: "gridftpd", Help: "gridftpd child VmHWM"},
	{Name: "dataset.parse_ms", Unit: "ms", Better: "lower", Layer: "dataset", Help: "probe: ParseSpec of a 100k-file log-normal spec"},
	// The benchmark itself.
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Layer: "bench", Help: "primary metric of the traced pass against the untraced pass beside it"},
	{Name: "trace.self_sum_pct", Unit: "%", Better: "higher", Layer: "bench", Help: "per-layer self times / root spans; 100 when nothing is lost"},
}

// value is one measured number: all its digits, its unit, and how many
// samples stand behind it (0 = a count or a single timed interval).
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is everything one run of one workload produced. It is what
// -out appends to a file and what -compare reads back.
type result struct {
	// Workload, Seed, Seconds and Trace echo the run's arguments.
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	// Correct is false when an output check failed; Errors says which.
	Correct bool     `json:"correct"`
	Errors  []string `json:"errors,omitempty"`
	// Attempted and Failed count the workload's operations; Op names
	// one (tuned session, job, epoch or file — see README.md).
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Op        string `json:"op"`
	// Metrics holds the declared metrics of this run: end-to-end ones
	// untraced, per-layer ones traced.
	Metrics map[string]value `json:"metrics"`
	// Info holds numbers printed for information only: they carry no
	// bound and the driver never sees them.
	Info map[string]value `json:"info,omitempty"`
	// Notes are free-form lines about the environment.
	Notes []string `json:"notes,omitempty"`
}

// newResult returns an empty, so-far-correct result.
func newResult(workload string, seed uint64, seconds float64, trace bool) *result {
	return &result{Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Correct: true, Metrics: map[string]value{}, Info: map[string]value{}}
}

// set records a declared metric.
func (r *result) set(name string, v float64, n int) { r.Metrics[name] = value{Value: v, N: n} }

// info records an information-only number.
func (r *result) info(name, unit string, v float64, n int) {
	r.Info[name] = value{Value: v, Unit: unit, N: n}
}

// report records a number that is a declared per-layer metric on a
// traced run and information only on an untraced one: what the
// workload-specific client-side numbers are.
func (r *result) report(name, unit string, v float64, n int) {
	if r.Trace {
		r.set(name, v, n)
	} else {
		r.info(name, unit, v, n)
	}
}

// fail records a failed correctness check.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// note records a line about the environment.
func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// finish fills in units, supplies 0 for every declared per-layer metric
// the workload bypassed, and fails the run if a declared end-to-end
// metric is missing, zero or not finite.
func (r *result) finish() {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	known := make(map[string]metricDef, len(defs))
	for _, d := range defs {
		known[d.Name] = d
		v, ok := r.Metrics[d.Name]
		switch {
		case !ok && r.Trace:
			v = value{}
		case !ok:
			r.fail("metric %s was not measured", d.Name)
		case !r.Trace && !(v.Value > 0), math.IsNaN(v.Value), math.IsInf(v.Value, 0):
			r.fail("metric %s = %v is not a positive finite number", d.Name, v.Value)
			v.Value = 0
		}
		v.Unit = d.Unit
		r.Metrics[d.Name] = v
	}
	for name := range r.Metrics {
		if _, ok := known[name]; !ok {
			r.fail("metric %s is not declared", name)
			delete(r.Metrics, name)
		}
	}
}

// print writes the human-readable report: every metric by name with
// value, unit, sample count, direction and bound.
func (r *result) print(w io.Writer) {
	mode := "untraced: end-to-end metrics"
	defs := endToEnd
	if r.Trace {
		mode, defs = "traced: per-layer metrics", perLayer
	}
	fmt.Fprintf(w, "\n== %s  seed=%d  seconds=%g  (%s)\n", r.Workload, r.Seed, r.Seconds, mode)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	fmt.Fprintf(w, "   %-32s %16s %-7s %7s  %-6s %s\n", "metric", "value", "unit", "n", "better", "bound")
	for _, d := range defs {
		v := r.Metrics[d.Name]
		bound := "-"
		if !r.Trace {
			bound = fmt.Sprintf("%.0f%%", d.Bound*100)
		}
		fmt.Fprintf(w, "   %-32s %16.6g %-7s %7s  %-6s %s\n", d.Name, v.Value, d.Unit, count(v.N), d.Better, bound)
	}
	if len(r.Info) > 0 {
		fmt.Fprintf(w, "   information only (no bound):\n")
		names := make([]string, 0, len(r.Info))
		for name := range r.Info {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := r.Info[name]
			fmt.Fprintf(w, "   %-32s %16.6g %-7s %7s\n", name, v.Value, v.Unit, count(v.N))
		}
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "   failed_share = %g (%d failed / %d attempted; one operation = one %s)\n", share, r.Failed, r.Attempted, r.Op)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   CHECK FAILED: %s\n", e)
	}
	fmt.Fprintf(w, "   correct = %v\n", r.Correct)
}

// count renders a sample count, blank for none.
func count(n int) string {
	if n == 0 {
		return ""
	}
	return fmt.Sprint(n)
}

// lastLine is the one JSON object the driver reads from the last line
// of standard output.
func (r *result) lastLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(r.Metrics))
	for name, v := range r.Metrics {
		metrics[name] = mv{v.Value, v.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // a map of float64 and string cannot fail to marshal unless a value is NaN, which finish removed
	}
	return string(line)
}

// appendTo appends the result to path as one JSON line, so that
// repeated runs build up the sample -compare needs.
func (r *result) appendTo(path string) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readResults reads a file written by appendTo.
func readResults(path string) ([]result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []result
	for i, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		out = append(out, r)
	}
	return out, nil
}
