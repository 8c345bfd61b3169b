package experiment

import (
	"fmt"
	"sort"
	"strings"

	"dstune/internal/trace"
	"dstune/internal/tuner"
)

// sparkWidth is the width of the rendered sparklines.
const sparkWidth = 40

// Render formats the Figure 1 sweep as an aligned table of boxplot
// statistics in MB/s, followed by the critical points.
func (r *Fig1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 — throughput vs parallel streams, %s (np=1)\n\n", r.Testbed)
	header := []string{"load", "nc", "min", "q1", "median", "q3", "max"}
	var rows [][]string
	for _, l := range r.Loads {
		for _, nc := range r.Concurrency {
			s := r.Summary[l][nc]
			rows = append(rows, []string{
				l.String(), fmt.Sprint(nc),
				trace.MBs(s.Min), trace.MBs(s.Q1), trace.MBs(s.Median),
				trace.MBs(s.Q3), trace.MBs(s.Max),
			})
		}
	}
	b.WriteString(trace.Table(header, rows))
	b.WriteString("\ncritical points (highest median):\n")
	for _, l := range r.Loads {
		fmt.Fprintf(&b, "  %-24s nc=%d (%s MB/s)\n",
			l.String(), r.Critical[l], trace.MBs(r.Summary[l][r.Critical[l]].Median))
	}
	return b.String()
}

// renderTrace writes one tuner's summary block: means, final vector,
// and sparklines of throughput and the tuned parameters.
func renderTrace(b *strings.Builder, name string, tr *tuner.Trace) {
	fmt.Fprintf(b, "%-9s mean %7s MB/s  best-case %7s MB/s  overhead %4.1f%%  final x=%v\n",
		name, trace.MBs(tr.MeanThroughput()), trace.MBs(tr.MeanBestCase()), overheadPct(tr), tr.FinalX())
	fmt.Fprintf(b, "          throughput %s\n", trace.Sparkline(tr.Throughput(), sparkWidth))
	dims := 0
	if x := tr.FinalX(); x != nil {
		dims = len(x)
	}
	labels := []string{"nc", "np"}
	for d := 0; d < dims && d < len(labels); d++ {
		fmt.Fprintf(b, "          %-10s %s\n", labels[d], trace.Sparkline(tr.Param(d), sparkWidth))
	}
}

// Render formats a tuning result: one block per tuner in presentation
// order.
func (r *TuningResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n\n", r.Testbed, r.Scenario)
	for _, name := range r.Order {
		if tr, ok := r.Traces[name]; ok {
			renderTrace(&b, name, tr)
		}
	}
	return b.String()
}

// Render formats the simultaneous-transfer result.
func (r *SimultaneousResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11 — simultaneous transfers tuned by %s\n\n", r.Tuner)
	renderTrace(&b, "UChicago", r.UChicago)
	renderTrace(&b, "TACC", r.TACC)
	total := r.UChicago.MeanThroughput() + r.TACC.MeanThroughput()
	fmt.Fprintf(&b, "aggregate %s MB/s out of the shared 5000 MB/s NIC\n", trace.MBs(total))
	return b.String()
}

// RenderImprovements formats the §IV-A claims table.
func RenderImprovements(imps []Improvement) string {
	header := []string{"scenario", "default MB/s", "best tuner", "tuner MB/s", "factor", "overheads"}
	var rows [][]string
	for _, im := range imps {
		names := make([]string, 0, len(im.OverheadPct))
		for n := range im.OverheadPct {
			names = append(names, n)
		}
		sort.Strings(names)
		var ov []string
		for _, n := range names {
			ov = append(ov, fmt.Sprintf("%s %.0f%%", n, im.OverheadPct[n]))
		}
		rows = append(rows, []string{
			im.Scenario,
			trace.MBs(im.Default),
			im.BestName,
			trace.MBs(im.Best),
			fmt.Sprintf("%.1fx", im.Factor),
			strings.Join(ov, ", "),
		})
	}
	return trace.Table(header, rows)
}
