package experiment

import (
	"fmt"
	"strings"

	"dstune/internal/trace"
	"dstune/internal/tuner"
)

// sparkWidth is the width of the rendered sparklines.
const sparkWidth = 40

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
