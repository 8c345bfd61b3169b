package experiment

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"dstune/internal/dataset"
	"dstune/internal/ivec"
	"dstune/internal/load"
	"dstune/internal/stats"
	"dstune/internal/trace"
	"dstune/internal/tuner"
	"dstune/internal/xfer"
)

// Config is what a door (cmd/figures, the tier-1 tests) chooses about
// the runs behind the studies.
type Config struct {
	// Seed, when non-zero, replaces every study's pinned seed and runs
	// it at the paper's length (1800 s). Zero runs each study at its
	// pinned configuration: the one tier-1 simulates, the golden holds
	// and EXPERIMENTS.md quotes.
	Seed uint64
	// Quick caps every transfer at 600 s (smoke mode).
	Quick bool
}

// At is the configuration a study pinned at `pinned` runs at.
func (c Config) At(pinned RunConfig) RunConfig {
	if c.Seed != 0 {
		pinned.Seed, pinned.Duration = c.Seed, 1800
	}
	if c.Quick {
		pinned.Duration = min(pinned.withDefaults().Duration, 600)
	}
	return pinned
}

// Runs memoises simulated runs at one Config, so that studies which
// are views of the same transfers — Figures 5, 6 and 7, the §IV-A
// claims and the convergence times; the cs-tuner ablations — simulate
// them once, at every door. Not safe for concurrent use: each door
// runs its studies one after another.
type Runs struct {
	cfg  Config
	memo map[string]memoRun
}

// memoRun is one memoised result.
type memoRun struct {
	v   any
	err error
}

// NewRuns returns an empty cache of runs at cfg.
func NewRuns(cfg Config) *Runs { return &Runs{cfg: cfg, memo: map[string]memoRun{}} }

// cached returns run's result, computed once per key and Runs.
func cached[T any](r *Runs, run func() (T, error), key ...any) (T, error) {
	k := fmt.Sprintf("%v", key)
	m, ok := r.memo[k]
	if !ok {
		m.v, m.err = run()
		r.memo[k] = m
	}
	v, _ := m.v.(T)
	return v, m.err
}

// short reports whether the studies that have a shortened tier-1 form
// (Figure 1's sweep, the disk datasets, the dynamic-load schedules) run
// it: at the pinned configuration and in smoke mode.
func (r *Runs) short() bool { return r.cfg.Seed == 0 || r.cfg.Quick }

// tune is TuneConcurrency, memoised: one cell of the Figures 5–7 sweep,
// the TACC trend, or an arm of the congestion-control or epoch ablation.
func (r *Runs) tune(tb Testbed, l load.Load, rc RunConfig) (*TuningResult, error) {
	return cached(r, func() (*TuningResult, error) { return TuneConcurrency(tb, l, rc) }, "tune", tb.Name, tb.CC, l, rc)
}

// Study is one entry of the evaluation: a figure of the paper, a claim
// derived from one, an extension or an ablation.
type Study struct {
	// Key is the study's name at every door (cmd/figures -fig KEY).
	Key string
	// Title heads the study's text and HTML section.
	Title string
	// Table is the heading of the EXPERIMENTS.md paper-vs-measured
	// table the study's Rows print under; empty when it has none.
	Table string
	// Pinned is the seeded configuration the study runs at by default.
	Pinned RunConfig
	// byHand marks the ablations (and the scorecard, a view of the
	// others): regenerated with -fig KEY, not simulated by tier-1.
	// Every other study is, at Pinned, and TestFigureMetricsGolden
	// holds its Metrics for equality.
	byHand bool

	run func(r *Runs, rc RunConfig, out *Outcome) error
}

// Run simulates the study — once per Runs — and returns its outcome.
func (s Study) Run(r *Runs) (*Outcome, error) {
	return cached(r, func() (*Outcome, error) {
		rc := r.cfg.At(s.Pinned).withDefaults()
		out := &Outcome{
			Config:  fmt.Sprintf("seed %d, %g s transfers, %g s epochs", rc.Seed, rc.Duration, rc.Epoch),
			Metrics: map[string]float64{},
			Traces:  map[string]*tuner.Trace{},
		}
		if err := s.run(r, rc, out); err != nil {
			return nil, fmt.Errorf("%s: %w", s.Key, err)
		}
		return out, nil
	}, "study", s.Key)
}

// Outcome is what a study yields.
type Outcome struct {
	// Config says what the runs behind it were seeded and sized at.
	Config string
	// Text is the study rendered for a terminal.
	Text string
	// Charts are its data series, grouped as they plot.
	Charts []Chart
	// Metrics are its headline quantities by name — the namespace of
	// testdata/figures.golden.json.
	Metrics map[string]float64
	// Rows are the quantities the paper states a value for, each with
	// its verdict.
	Rows []Row
	// Traces are the tuned runs behind its Metrics, each keyed by the
	// prefix the metrics scored from it carry ("fig5-cmp16/cd-tuner",
	// "warm/cs-tuner/tfr16/cold").
	Traces map[string]*tuner.Trace
}

// Chart is a group of series sharing axes.
type Chart struct {
	Title string
	// Unit labels the values; see Scale.
	Unit string
	// X names a categorical x axis, one bar group per point; empty
	// means transfer time in seconds, drawn as lines.
	X      string
	Series []*trace.Series
}

// Scale is what the series' values are divided by to read in Unit:
// throughput series are in bytes per second and read in MB/s.
func (c Chart) Scale() float64 {
	if c.Unit == "MB/s" {
		return 1e6
	}
	return 1
}

// text renders the chart as one sparkline row per series.
func (c Chart) text() string {
	var b strings.Builder
	fmt.Fprintln(&b, c.Title)
	for _, s := range c.Series {
		fmt.Fprintf(&b, "  %-9s %s  final %8.1f %s  mean %8.1f\n",
			s.Name, trace.Sparkline(s, sparkWidth), s.Last().V/c.Scale(), c.Unit, s.Mean()/c.Scale())
	}
	return b.String() + "\n"
}

// tracesChart plots sel of each named trace, in order.
func tracesChart(title, unit string, order []string, traces map[string]*tuner.Trace, sel func(*tuner.Trace) *trace.Series) Chart {
	c := Chart{Title: title, Unit: unit}
	for _, name := range order {
		s := sel(traces[name])
		s.Name = name
		c.Series = append(c.Series, s)
	}
	return c
}

// Row is one line of a paper-vs-measured table.
type Row struct {
	Quantity, Paper, Measured string
	// Verdict words the rule OK was judged by.
	Verdict string
	OK      bool
}

// ScoreHeader names Cells' columns.
var ScoreHeader = []string{"quantity", "paper", "measured", "verdict"}

// Cells returns the row as ScoreHeader's columns.
func (w Row) Cells() []string {
	mark := "✓ "
	if !w.OK {
		mark = "✗ "
	}
	return []string{w.Quantity, w.Paper, w.Measured, strings.TrimSpace(mark + w.Verdict)}
}

// Scorecard renders EXPERIMENTS.md's paper-vs-measured tables: the Rows
// of every study that prints under a Table, in Studies order, each
// table headed by the configuration its measured column comes from.
func Scorecard(r *Runs) (string, error) {
	var b strings.Builder
	table := ""
	for _, s := range Studies() {
		if s.Table == "" {
			continue
		}
		out, err := s.Run(r)
		if err != nil {
			return "", err
		}
		if s.Table != table {
			table = s.Table
			fmt.Fprintf(&b, "\n## %s\n\nMeasured at %s.\n\n| %s |\n|---|---|---|---|\n", table, out.Config, strings.Join(ScoreHeader, " | "))
		}
		for _, w := range out.Rows {
			fmt.Fprintf(&b, "| %s |\n", strings.Join(w.Cells(), " | "))
		}
	}
	return b.String(), nil
}

// steadyFrom is where a run's steady window opens: its last third.
func steadyFrom(rc RunConfig) float64 { return rc.Duration * 2 / 3 }

// add renders one TuningResult into out: its text, a throughput chart
// titled title — and, when several parameters are tuned, one per
// parameter — and every trace's metrics under prefix.
func (out *Outcome) add(title, prefix string, res *TuningResult, steady float64) {
	out.Text += res.Render() + "\n"
	out.Charts = append(out.Charts, tracesChart(title, "MB/s", res.Order, res.Traces, (*tuner.Trace).Throughput))
	if dims := len(res.Traces[res.Order[0]].FinalX()); dims > 1 {
		for d := 0; d < dims; d++ {
			out.Charts = append(out.Charts, tracesChart(title+" — "+dimNames[d], dimNames[d], res.Order, res.Traces,
				func(tr *tuner.Trace) *trace.Series { return tr.Param(d) }))
		}
	}
	for name, tr := range res.Traces {
		out.Traces[prefix+"/"+name] = tr
		traceMetrics(out.Metrics, prefix+"/"+name, tr, steady)
	}
}

// tuning completes s as a study that is one TuningResult harness,
// its metrics under prefix; rows, when not nil, judges it against the
// paper.
func tuning(s Study, prefix string, harness func(*Runs, RunConfig) (*TuningResult, error),
	rows func(out *Outcome, res *TuningResult, rc RunConfig)) Study {
	s.run = func(r *Runs, rc RunConfig, out *Outcome) error {
		res, err := harness(r, rc)
		if err != nil {
			return err
		}
		out.add(s.Title, prefix, res, steadyFrom(rc))
		if rows != nil {
			rows(out, res, rc)
		}
		return nil
	}
	return s
}

// mb formats a throughput in bytes per second as whole MB/s.
func mb(v float64) string { return fmt.Sprintf("%.0f", v/1e6) }

// within reports whether v is within tol of want.
func within(v, want, tol float64) bool { return math.Abs(v-want) <= tol }

// fig1Loads are Figure 1's two scenarios: no load, and
// ext.tfr=ext.cmp=16.
var fig1Loads = []load.Load{{}, {Tfr: 16, Cmp: 16}}

// fig1Study is Figure 1: a static transfer per (load, nc, repeat) with
// parallelism 1, as in §III-A, reporting boxplot statistics of the
// observed throughput and the concurrency with the highest median (the
// paper's "critical point"). The sweep is the paper's — 5 repeats of
// 600 s (10 minutes) at nc = 1, 2, 4, …, 512 — or, short,
// TestFig1Shape's 2 repeats of 240 s at nc = 1, 4, 16, 64, 256.
func fig1Study(r *Runs, rc RunConfig, out *Outcome) error {
	tb := ANLtoUChicago()
	repeats, dur, ncs := 5, 600.0, []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	if r.short() {
		repeats, dur, ncs = 2, 240, []int{1, 4, 16, 64, 256}
	}
	out.Config = fmt.Sprintf("seed %d, %d repeats × %g s per point, nc ∈ %v", rc.Seed, repeats, dur, ncs)

	// Flatten the (load, nc, repeat) sweep into independent cells,
	// repeats innermost — each runs on its own fabric seeded by its
	// repeat index alone, so the per-cell throughput is identical
	// whether cells run sequentially or on the worker pool.
	per := len(ncs) * repeats
	tputs := make([]float64, len(fig1Loads)*per)
	err := forEachCell(len(tputs), func(i int) error {
		l, nc, rep := fig1Loads[i/per], ncs[i%per/repeats], i%repeats
		f, _, err := tb.NewFabric(rc.Seed + uint64(rep))
		if err != nil {
			return err
		}
		f.SetLoad(load.Constant(l), nil)
		tr, err := f.NewTransfer(xfer.TransferConfig{
			Bytes:  xfer.Unbounded,
			Policy: xfer.RestartOnChange,
		})
		if err != nil {
			return err
		}
		res, err := tr.Run(context.Background(), xfer.Params{NC: nc, NP: 1}, dur)
		tr.Stop()
		if err != nil {
			return err
		}
		tputs[i] = res.Throughput
		return nil
	})
	if err != nil {
		return err
	}

	// Per load: each nc's five-number summary of its repeats, the
	// critical point, the table rows and the chart series of medians.
	summary := make([]map[int]stats.Summary, len(fig1Loads))
	crit := make([]int, len(fig1Loads))
	peak := func(li int) float64 { return summary[li][crit[li]].Median }
	bars := Chart{Title: "Figure 1 — median throughput vs concurrency", Unit: "MB/s", X: "nc"}
	var table [][]string
	for li, l := range fig1Loads {
		summary[li] = make(map[int]stats.Summary, len(ncs))
		medians := make(map[int]float64, len(ncs))
		s := &trace.Series{Name: l.String()}
		for k, nc := range ncs {
			sum := stats.Summarize(tputs[li*per+k*repeats : li*per+(k+1)*repeats])
			summary[li][nc], medians[nc] = sum, sum.Median
			s.Add(float64(nc), sum.Median)
			table = append(table, []string{
				l.String(), fmt.Sprint(nc),
				trace.MBs(sum.Min), trace.MBs(sum.Q1), trace.MBs(sum.Median),
				trace.MBs(sum.Q3), trace.MBs(sum.Max),
			})
		}
		crit[li], _ = stats.ArgmaxKey(medians)
		bars.Series = append(bars.Series, s)
		name := []string{"free", "loaded"}[li]
		out.Metrics["fig1/"+name+"/critical-nc"] = float64(crit[li])
		out.Metrics["fig1/"+name+"/peak-MB/s"] = peak(li) / 1e6
	}
	out.Charts = []Chart{bars}

	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 — throughput vs parallel streams, %s (np=1)\n\n", tb.Name)
	b.WriteString(trace.Table([]string{"load", "nc", "min", "q1", "median", "q3", "max"}, table))
	b.WriteString("\ncritical points (highest median):\n")
	for li, l := range fig1Loads {
		fmt.Fprintf(&b, "  %-24s nc=%d (%s MB/s)\n", l.String(), crit[li], trace.MBs(peak(li)))
	}
	out.Text = b.String()

	// The no-load medians rise to the critical point and fall after it.
	shape := true
	for k, nc := range ncs[1:] {
		rising := summary[0][nc].Median > summary[0][ncs[k]].Median
		shape = shape && rising == (nc <= crit[0])
	}
	loaded := fig1Loads[1]
	out.Rows = []Row{
		{"shape", "monotone rise to a critical point, then monotone decline",
			fmt.Sprintf("no-load medians rise nc %d→%d, fall %d→%d", ncs[0], crit[0], crit[0], ncs[len(ncs)-1]), "", shape},
		{"critical nc, no load", "64", fmt.Sprint(crit[0]), "same order of magnitude", crit[0] >= 16 && crit[0] <= 256},
		{"critical nc, " + loaded.String(), "rises (text: 256 under tfr=64)", fmt.Sprint(crit[1]),
			"does not fall under load", crit[1] >= crit[0]},
		{"peak under load vs. free", "decreases", mb(peak(0)) + " → " + mb(peak(1)) + " MB/s", "", peak(1) < peak(0)},
	}
	return nil
}

// sweepCells names the Fig5Loads scenarios in metric keys.
var sweepCells = []string{"free", "cmp16", "cmp64", "tfr16", "tfr64"}

// sweepStudy completes s as a view of the Figures 5–7 sweep — one tune
// per Fig5Loads scenario, shared by every such view, whose traces and
// their metrics each view carries.
func sweepStudy(s Study, view func(out *Outcome, sweep []*TuningResult)) Study {
	s.Table = "Figures 5–7 — tuning concurrency under constant load (ANL→UChicago, np=8)"
	s.Pinned = RunConfig{Seed: 7, Duration: 900, Epoch: 30}
	s.run = func(r *Runs, rc RunConfig, out *Outcome) error {
		var sweep []*TuningResult
		for i, l := range Fig5Loads() {
			res, err := r.tune(ANLtoUChicago(), l, rc)
			if err != nil {
				return err
			}
			sweep = append(sweep, res)
			for name, tr := range res.Traces {
				key := "fig5-" + sweepCells[i] + "/" + name
				out.Traces[key] = tr
				traceMetrics(out.Metrics, key, tr, steadyFrom(rc))
			}
		}
		view(out, sweep)
		return nil
	}
	return s
}

// figureView is Figure 5, 6 or 7: sel of every tuner's trace, per load
// scenario.
func figureView(s Study, what, unit string, sel func(*tuner.Trace) *trace.Series, rows func([]*TuningResult) []Row) Study {
	return sweepStudy(s, func(out *Outcome, sweep []*TuningResult) {
		for i, res := range sweep {
			title := fmt.Sprintf("Figure %s(%c) — %s, %s, %s", s.Key, 'a'+i, what, res.Testbed, res.Scenario)
			c := tracesChart(title, unit, res.Order, res.Traces, sel)
			out.Charts = append(out.Charts, c)
			out.Text += c.text()
		}
		out.Rows = rows(sweep)
	})
}

// fig5Rows judges the sweep's throughputs.
func fig5Rows(sweep []*TuningResult) []Row {
	free, cmp16 := improvementOf(sweep[0]), improvementOf(sweep[1])
	best := func(im improvement) string {
		return fmt.Sprintf("%s %s MB/s (%.1fx)", im.bestName, mb(im.best), im.factor)
	}
	cd := sweep[1].Traces["cd-tuner"].MeanThroughput()
	return []Row{
		{"no load: default", "~2500 MB/s", mb(free.def) + " MB/s", "calibrated", within(free.def, 2.5e9, 0.25e9)},
		{"no load: best tuner", "~3500 MB/s (1.4x)", best(free), "modest gain", free.factor > 1 && free.factor < 2.5},
		{"ext.cmp=16: default", "~200 MB/s", mb(cmp16.def) + " MB/s", "collapse", cmp16.def < free.def/10},
		{"ext.cmp=16: best tuner", "~1500 MB/s (7x)", best(cmp16), "large gain, same direction", cmp16.factor >= 3},
		{"cd-tuner under load", "improves less (2x) than cs/nm",
			fmt.Sprintf("cd-tuner %s vs %s %s MB/s at ext.cmp=16", mb(cd), cmp16.bestName, mb(cmp16.best)), "", cd < cmp16.best},
	}
}

// fig6Rows judges the concurrency the tuners adopt.
func fig6Rows(sweep []*TuningResult) []Row {
	nc := func(cell int, name string) int { return sweep[cell].Traces[name].FinalX()[0] }
	free, cmp16, tfr16 := nc(0, "nm-tuner"), nc(1, "nm-tuner"), nc(3, "cs-tuner")
	return []Row{
		{"nc adopted, no load", "~5", fmt.Sprint(free), "small", free > 2 && free <= 16},
		{"nc adopted, ext.cmp=16", "50–80", fmt.Sprint(cmp16), "much larger than the default 2", cmp16 >= 10 && cmp16 > free},
		{"nc adopted, ext.tfr=16", "~25", fmt.Sprint(tfr16), "", tfr16 >= 12 && tfr16 <= 50},
	}
}

// fig7Rows judges nm-tuner's restart overhead.
func fig7Rows(sweep []*TuningResult) []Row {
	var rows []Row
	for i, paper := range []float64{17, 33, 50} {
		ov := overheadPct(sweep[i].Traces["nm-tuner"])
		rows = append(rows, Row{"restart overhead, " + []string{"no load", "ext.cmp=16", "ext.cmp=64"}[i],
			fmt.Sprintf("%.0f%%", paper), fmt.Sprintf("%.0f%%", ov), "within 10 points", within(ov, paper, 10)})
	}
	return rows
}

// claimsView derives the §IV-A claims (1.4x-10x gains, 15-50%
// overhead) from the sweep: per scenario the improvement over default,
// and every tuner's restart overhead.
func claimsView(out *Outcome, sweep []*TuningResult) {
	var rows [][]string
	factors := make([]float64, len(sweep))
	for i, res := range sweep {
		im := improvementOf(res)
		factors[i] = im.factor
		out.Metrics["claims/"+sweepCells[i]+"/factor"] = im.factor
		names := append([]string(nil), res.Order...)
		sort.Strings(names)
		var ov []string
		for _, n := range names {
			if tr := res.Traces[n]; tr.MeanBestCase() > 0 {
				ov = append(ov, fmt.Sprintf("%s %.0f%%", n, overheadPct(tr)))
			}
		}
		rows = append(rows, []string{res.Scenario, trace.MBs(im.def), im.bestName, trace.MBs(im.best),
			fmt.Sprintf("%.1fx", im.factor), strings.Join(ov, ", ")})
	}
	header := []string{"scenario", "default MB/s", "best tuner", "tuner MB/s", "factor", "overheads"}
	out.Text = trace.Table(header, rows) + "\n"
	cmp64, tfr16, tfr64 := factors[2], factors[3], factors[4]
	out.Rows = []Row{
		{"ext.cmp=64: improvement", "10x", fmt.Sprintf("%.1fx", cmp64), "biggest gain of the sweep", cmp64 == slices.Max(factors)},
		{"ext.tfr=16/64: improvement", "~2x", fmt.Sprintf("%.1fx / %.1fx", tfr16, tfr64), "", tfr16 > 1.2 && tfr64 > 1.2},
	}
}

// convergenceView derives the §IV-A timing claims from the sweep: each
// tuner's time to 90% of its steady throughput (3-epoch window).
func convergenceView(out *Outcome, sweep []*TuningResult) {
	out.Text = "seconds to 90% of steady throughput (3-epoch window; -1 = not reached):\n"
	for i, res := range sweep {
		out.Text += fmt.Sprintf("  %-24s", res.Scenario)
		for _, name := range res.Order {
			secs := res.Traces[name].ConvergenceTime(0.9, 3)
			out.Metrics["convergence/"+sweepCells[i]+"/"+name+"-s"] = secs
			out.Text += fmt.Sprintf("  %s=%.0f", name, secs)
		}
		out.Text += "\n"
	}
	cd, nm := out.Metrics["convergence/free/cd-tuner-s"], out.Metrics["convergence/free/nm-tuner-s"]
	out.Rows = []Row{{"time to steady state, no load: cd vs nm", "~100 s vs 500–600 s", fmt.Sprintf("%.0f s vs %.0f s", cd, nm),
		"cd fast near a good start; cs/nm take large early steps", cd >= 0 && cd < nm}}
}

// tuneBoth completes s as Figure 8 or 9: TuneBoth on tb.
func tuneBoth(s Study, tb Testbed) Study {
	s.Table, s.Pinned = "Figures 8–9 — tuning nc and np under varying load", RunConfig{Seed: 3, Duration: 1800, Epoch: 30}
	prefix := "fig" + s.Key + "-tune-both"
	return tuning(s, prefix, func(_ *Runs, rc RunConfig) (*TuningResult, error) { return TuneBoth(tb, rc) },
		func(out *Outcome, res *TuningResult, rc RunConfig) {
			// nm-tuner's gain over default: before the drop over the
			// epochs that start before t=1000 s, after it over the steady
			// window.
			nm, def := res.Traces["nm-tuner"], res.Traces["default"]
			before := tuner.WindowMean(segmentOf(nm, 0, 1000)) / tuner.WindowMean(segmentOf(def, 0, 1000))
			after := nm.SteadyThroughput(steadyFrom(rc)) / def.SteadyThroughput(steadyFrom(rc))
			out.Metrics[prefix+"/before-drop-factor"], out.Metrics[prefix+"/after-drop-factor"] = before, after
			x := nm.FinalX()
			out.Rows = []Row{
				{"improvement before the drop, " + tb.Name, "1.3x", fmt.Sprintf("%.1fx", before),
					"direction (our simulated default suffers more under tfr=64+cmp=16)", before > 1},
				{"improvement after the drop, " + tb.Name, "10x", fmt.Sprintf("%.1fx", after), "", after >= 5},
				{"concurrency drives the gain; parallelism minor, " + tb.Name, "yes",
					fmt.Sprintf("nm-tuner ends at nc=%d, np=%d from the default nc=2, np=8", x[0], x[1]), "", x[0] >= 16 && x[1] <= 8},
			}
		})
}

// heuristicsRows judges Figure 10.
func heuristicsRows(out *Outcome, res *TuningResult, _ RunConfig) {
	h1, h2 := res.Traces["heur1"], res.Traces["heur2"]
	nm, m1, m2 := res.Traces["nm-tuner"].MeanThroughput(), h1.MeanThroughput(), h2.MeanThroughput()
	step := 0
	for i, e := range h1.Results[1:] {
		for d, v := range e.X {
			step = max(step, v-h1.Results[i].X[d], h1.Results[i].X[d]-v)
		}
	}
	frozen := len(h2.Results) - 1
	for frozen > 0 && ivec.Equal(h2.Results[frozen-1].X, h2.FinalX()) {
		frozen--
	}
	at := h2.Results[frozen].Report.Start
	out.Rows = []Row{
		{"nm and heur2 beat heur1", "yes", fmt.Sprintf("nm %s, heur2 %s, heur1 %s MB/s", mb(nm), mb(m2), mb(m1)), "ordering", nm > m1 && m2 > m1},
		{"heur1 needs many epochs (additive +1)", "yes", fmt.Sprintf("largest step of any parameter between epochs: %d", step), "", step == 1},
		{"heur2 has no decrement; terminates", "yes", fmt.Sprintf("vector frozen at %v from t=%.0f s; cannot react to the t=1000 s load drop", h2.FinalX(), at),
			"the paper's critique, visible end to end", at < 1000},
	}
}

// fig11Study is Figure 11 under nm-tuner and, for comparison, cs-tuner.
func fig11Study(_ *Runs, rc RunConfig, out *Outcome) error {
	var both []*SimultaneousResult
	for i, name := range []string{"nm-tuner", "cs-tuner"} {
		res, err := Simultaneous(name, rc)
		if err != nil {
			return err
		}
		both = append(both, res)
		out.Text += res.Render() + "\n"
		out.Charts = append(out.Charts, res.chart("Figure 11 — simultaneous transfers tuned by "+name))
		uc, tc := res.UChicago.MeanThroughput(), res.TACC.MeanThroughput()
		prefix := []string{"fig11", "fig11-cs-tuner"}[i]
		out.Traces[prefix+"/uchicago"], out.Traces[prefix+"/tacc"] = res.UChicago, res.TACC
		out.Metrics[prefix+"/uchicago-MB/s"], out.Metrics[prefix+"/tacc-MB/s"], out.Metrics[prefix+"/aggregate-MB/s"] = uc/1e6, tc/1e6, (uc+tc)/1e6
	}
	uc, tc := both[0].UChicago.MeanThroughput(), both[0].TACC.MeanThroughput()
	out.Rows = []Row{
		{"both transfers progress, tuned independently", "yes", fmt.Sprintf("UChicago %s, TACC %s MB/s", mb(uc), mb(tc)), "", uc > 0 && tc > 0},
		{"aggregate bounded by shared NIC", "yes", mb(uc+tc) + " of 5000 MB/s", "", uc+tc <= 5e9},
		{"complex interaction; UChicago tends to claim more", "yes", fmt.Sprintf("UChicago moves %.2fx TACC's bytes on the pinned seed", uc/tc),
			"seed-dependent, as the paper's \"further study required\" suggests", uc > tc},
	}
	return nil
}

// chart plots the two transfers' throughput.
func (r *SimultaneousResult) chart(title string) Chart {
	return tracesChart(title, "MB/s", []string{"UChicago", "TACC"},
		map[string]*tuner.Trace{"UChicago": r.UChicago, "TACC": r.TACC}, (*tuner.Trace).Throughput)
}

// ablation completes s as a by-hand study of n arms: arm i is one run,
// and the table prints the mean throughput of its traces named cols.
func ablation(s Study, cols []string, n int, arm func(r *Runs, rc RunConfig, i int) (string, *TuningResult, error)) Study {
	s.byHand = true
	s.run = func(r *Runs, rc RunConfig, out *Outcome) error {
		var rows [][]string
		for i := 0; i < n; i++ {
			label, res, err := arm(r, rc, i)
			if err != nil {
				return err
			}
			row := []string{label}
			for _, c := range cols {
				row = append(row, trace.MBs(res.Traces[c].MeanThroughput()))
			}
			rows = append(rows, row)
		}
		out.Text = trace.Table(append([]string{s.Key}, cols...), rows) + "\n"
		return nil
	}
	return s
}

// csArm is one cs-tuner run under ext.cmp=16 with its knobs explicit.
type csArm struct {
	label             string
	tolerance, lambda float64
	policy            xfer.RestartPolicy
	observeBest       bool
}

// csAblation completes s as a comparison of cs-tuner arms on seed 15's
// ext.cmp=16 transfer; an arm several ablations share (ε=5%, λ=8,
// restart every epoch) is simulated once.
func csAblation(s Study, arms ...csArm) Study {
	s.Pinned = RunConfig{Seed: 15, Duration: 1800}
	return ablation(s, []string{"cs-tuner"}, len(arms), func(r *Runs, rc RunConfig, i int) (string, *TuningResult, error) {
		a, tb := arms[i], ANLtoUChicago()
		res, err := cached(r, func() (*TuningResult, error) {
			cfg := rc.tunerCfg(false)
			cfg.Tolerance, cfg.Lambda, cfg.ObserveBestCase = a.tolerance, a.lambda, a.observeBest
			return runEach(tb, []string{"cs-tuner"}, "ext.cmp=16", func(name string) (*tuner.Trace, error) {
				return runPolicy(tb, name, a.policy, load.Constant(load.Load{Cmp: 16}), rc.Seed, xfer.TransferConfig{Bytes: xfer.Unbounded}, cfg)
			})
		}, "cs", a.tolerance, a.lambda, a.policy, a.observeBest, rc)
		return a.label, res, err
	})
}

// Studies is the evaluation: every figure, claim, extension and
// ablation the repository reproduces, in presentation order. Every
// door — cmd/figures, the golden, the scorecard test — reads this
// table and nothing else.
func Studies() []Study {
	uc, tacc := ANLtoUChicago(), ANLtoTACC()
	full := func(seed uint64) RunConfig { return RunConfig{Seed: seed, Duration: 1800, Epoch: 30} }
	every, onChange := xfer.RestartEveryEpoch, xfer.RestartOnChange
	ccs, epochs, depths := []string{"htcp", "cubic", "reno", "scalable"}, []float64{10, 30, 60}, []int{1, 4, 16}
	return []Study{
		{Key: "1", Title: "Figure 1 — throughput vs. parallel streams (ANL→UChicago, np=1)", Pinned: RunConfig{Seed: 1}, run: fig1Study,
			Table: "Figure 1 — throughput vs. parallel streams (ANL→UChicago, np=1)"},
		figureView(Study{Key: "5", Title: "Figure 5 — observed throughput under constant load"},
			"observed throughput", "MB/s", (*tuner.Trace).Throughput, fig5Rows),
		figureView(Study{Key: "6", Title: "Figure 6 — concurrency adopted under constant load"},
			"concurrency adopted", "nc", func(tr *tuner.Trace) *trace.Series { return tr.Param(0) }, fig6Rows),
		figureView(Study{Key: "7", Title: "Figure 7 — best-case (restart-free) throughput under constant load"},
			"best-case throughput", "MB/s", (*tuner.Trace).BestCase, fig7Rows),
		sweepStudy(Study{Key: "claims", Title: "§IV-A claims — improvement over default and restart overhead"}, claimsView),
		sweepStudy(Study{Key: "convergence", Title: "§IV-A timing — convergence to steady state"}, convergenceView),
		tuneBoth(Study{Key: "8", Title: "Figure 8 — tuning nc and np under varying load (ANL→TACC)"}, tacc),
		tuneBoth(Study{Key: "9", Title: "Figure 9 — tuning nc and np under varying load (ANL→UChicago)"}, uc),
		tuning(Study{Key: "10", Title: "Figure 10 — nm-tuner vs. existing heuristics (ANL→TACC)", Pinned: full(5),
			Table: "Figure 10 — comparison with existing heuristics (ANL→TACC)"}, "fig10-heuristics",
			func(_ *Runs, rc RunConfig) (*TuningResult, error) { return CompareHeuristics(tacc, rc) }, heuristicsRows),
		{Key: "11", Title: "Figure 11 — simultaneous tuned transfers sharing the source", Pinned: RunConfig{Seed: 9, Duration: 1200, Epoch: 30},
			Table: "Figure 11 — simultaneous tuned transfers sharing the source", run: fig11Study},
		// Traffic on the path that the source endpoint does not see, which
		// the paper could not control on its production links.
		tuning(Study{Key: "third-party", Title: "Bursty third-party traffic (64 background streams toggling every 180 s)",
			Pinned: RunConfig{Seed: 21, Duration: 1440, Epoch: 30}}, "third-party",
			func(_ *Runs, rc RunConfig) (*TuningResult, error) {
				names := []string{"default", "cd-tuner", "cs-tuner", "nm-tuner"}
				sched := load.Square(180, load.Load{}, load.Load{Net: 64})
				return runSet(uc, names, "bursty third-party net=64 period=180s", sched, rc, false)
			}, nil),
		// The paper's core argument: a model fitted to past conditions
		// degrades when they change.
		tuning(Study{Key: "model", Title: "Empirical model baseline vs. direct search under varying load (ANL→TACC)", Pinned: full(23)}, "compare-model",
			func(_ *Runs, rc RunConfig) (*TuningResult, error) {
				return runSet(tacc, []string{"default", "model", "nm-tuner"}, "varying load", VaryingLoad(), rc, false)
			}, nil),
		tuning(Study{Key: "tacc", Title: "§IV-A trend on ANL→TACC without load", Pinned: RunConfig{Seed: 30, Duration: 1800}}, "tacc-no-load",
			func(r *Runs, rc RunConfig) (*TuningResult, error) { return r.tune(tacc, load.Load{}, rc) }, nil),
		{Key: "disk", Title: "Extension — disk-to-disk transfers over heterogeneous file sets", run: diskStudy},
		{Key: "joint", Title: "Extension — endpoint-level joint tuning vs. independent tuners", Pinned: RunConfig{Seed: 7, Duration: 900, Epoch: 30}, run: jointStudy},
		{Key: "dynload", Title: "Extension — learned tuning vs. direct search on dynamic load", Pinned: RunConfig{Seed: 7}, run: dynloadStudy},
		{Key: "warm", Title: "Extension — warm-started tuning vs. cold start", Pinned: RunConfig{Seed: 11, Duration: 900, Epoch: 30}, run: warmStudy},
		// The paper's testbed ran H-TCP; CUBIC is Linux's default.
		ablation(Study{Key: "cc", Title: "Ablation — TCP congestion control on the no-load path", Pinned: RunConfig{Seed: 13, Duration: 900}},
			[]string{"default", "nm-tuner"}, len(ccs), func(r *Runs, rc RunConfig, i int) (string, *TuningResult, error) {
				tb := uc
				tb.CC = ccs[i]
				res, err := r.tune(tb, load.Load{}, rc)
				return ccs[i], res, err
			}),
		// Short epochs adapt faster but amplify the restart overhead.
		ablation(Study{Key: "epoch", Title: "Ablation — control epoch length under ext.cmp=16", Pinned: RunConfig{Seed: 14, Duration: 1800}},
			[]string{"nm-tuner"}, len(epochs), func(r *Runs, rc RunConfig, i int) (string, *TuningResult, error) {
				rc.Epoch = epochs[i]
				res, err := r.tune(uc, load.Load{Cmp: 16}, rc)
				return fmt.Sprintf("%gs", epochs[i]), res, err
			}),
		csAblation(Study{Key: "tolerance", Title: "Ablation — significance threshold ε"},
			csArm{"1pct", 1, 8, every, false}, csArm{"5pct", 5, 8, every, false}, csArm{"10pct", 10, 8, every, false}),
		csAblation(Study{Key: "lambda", Title: "Ablation — compass search's initial step λ"},
			csArm{"2", 5, 2, every, false}, csArm{"8", 5, 8, every, false}, csArm{"32", 5, 32, every, false}),
		csAblation(Study{Key: "restart", Title: "Ablation — restart every epoch vs. only on a parameter change"},
			csArm{"every-epoch", 5, 8, every, false}, csArm{"on-change", 5, 8, onChange, false}),
		csAblation(Study{Key: "observe-bestcase", Title: "Ablation — restart-aware monitor (observing best-case throughput)"},
			csArm{"observe-throughput", 5, 8, onChange, false}, csArm{"observe-bestcase", 5, 8, onChange, true}),
		// A static depth on the many-small regime isolates the parameter
		// the disk extension adds.
		ablation(Study{Key: "pipelining", Title: "Ablation — static pipelining depth on 20000 small files", Pinned: RunConfig{Seed: 18, Duration: 600}},
			[]string{"default"}, len(depths), func(_ *Runs, rc RunConfig, i int) (string, *TuningResult, error) {
				cfg := rc.diskTunerCfg()
				cfg.Start = []int{8, 4, depths[i]}
				res, err := runEach(uc, []string{"default"}, "disk: many-small", func(name string) (*tuner.Trace, error) {
					return runTransfer(uc, name, load.None(), rc.Seed, xfer.TransferConfig{Files: dataset.ManySmall(20000)}, cfg)
				})
				return fmt.Sprintf("pp%d", depths[i]), res, err
			}),
		{Key: "scorecard", Title: "Scorecard — paper vs. measured", byHand: true,
			run: func(r *Runs, _ RunConfig, out *Outcome) (err error) {
				out.Config = "each table at the configuration it states"
				out.Text, err = Scorecard(r)
				return err
			}},
	}
}
