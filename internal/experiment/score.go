package experiment

import (
	"dstune/internal/stats"
	"dstune/internal/tuner"
)

// How a run is scored: every quantity a study derives from its traces
// beyond the traces' own means is computed here.

// integralBytes is the integral of observed throughput over the run:
// total bytes moved.
func integralBytes(tr *tuner.Trace) float64 {
	var bytes float64
	for _, r := range tr.Results {
		bytes += r.Report.Bytes
	}
	return bytes
}

// overheadPct is the share of throughput a trace lost to restarts:
// 100 * (1 - observed/best-case).
func overheadPct(tr *tuner.Trace) float64 {
	best := tr.MeanBestCase()
	if best <= 0 {
		return 0
	}
	return 100 * (1 - tr.MeanThroughput()/best)
}

// dimNames names the coordinates of a tuned vector, in Space.Apply's
// order.
var dimNames = [...]string{"nc", "np", "pp"}

// traceMetrics records under prefix what the figures report of one
// trace: whole-run and steady-state (none when steady is zero)
// throughput, restart overhead, the vector it ended on, files moved.
func traceMetrics(m map[string]float64, prefix string, tr *tuner.Trace, steady float64) {
	m[prefix+"/mean-MB/s"] = tr.MeanThroughput() / 1e6
	if steady > 0 {
		m[prefix+"/steady-MB/s"] = tr.SteadyThroughput(steady) / 1e6
	}
	if tr.MeanBestCase() > 0 {
		m[prefix+"/overhead-%"] = overheadPct(tr)
	}
	for i, v := range tr.FinalX() {
		m[prefix+"/final-"+dimNames[i]] = float64(v)
	}
	if files := FilesMoved(tr); files > 0 {
		m[prefix+"/files"] = float64(files)
	}
}

// improvement is one scenario's §IV-A score: the default's whole-run
// mean throughput, the best adaptive tuner's and its name, and the
// factor between them.
type improvement struct {
	def, best float64
	bestName  string
	factor    float64
}

// improvementOf scores the tuners of res against its "default".
func improvementOf(res *TuningResult) improvement {
	var im improvement
	if d, ok := res.Traces["default"]; ok {
		im.def = d.MeanThroughput()
	}
	for _, name := range res.Order {
		if obs := res.Traces[name].MeanThroughput(); name != "default" && obs > im.best {
			im.best, im.bestName = obs, name
		}
	}
	im.factor = stats.Improvement(im.best, im.def)
	return im
}

// segmentOf returns the epochs of tr that start within [from, to).
func segmentOf(tr *tuner.Trace, from, to float64) []tuner.EpochResult {
	const eps = 1e-9
	var seg []tuner.EpochResult
	for _, r := range tr.Results {
		if r.Report.Start >= from-eps && r.Report.Start < to-eps {
			seg = append(seg, r)
		}
	}
	return seg
}

// peakWindow is the best rolling-window throughput mean in seg (zero
// when seg is shorter than the window).
func peakWindow(seg []tuner.EpochResult, window int) float64 {
	best := 0.0
	for i := 0; i+window <= len(seg); i++ {
		best = max(best, tuner.WindowMean(seg[i:i+window]))
	}
	return best
}

// segmentLag is the index of the first epoch in seg opening a rolling
// window whose mean reaches target; a segment that never gets there —
// or is too short to hold one window — is charged its full length.
func segmentLag(seg []tuner.EpochResult, target float64, window int) int {
	if i := tuner.FirstWindow(seg, window, target); i >= 0 {
		return i
	}
	return len(seg)
}

// The re-adaptation lag's rolling-mean width in epochs, and the
// fraction of the segment's best window a run must reach to count as
// re-adapted.
const (
	lagWindow = 3
	lagFrac   = 0.8
)

// shiftLags scores runs under one load schedule by their re-adaptation
// lag after each of its shifts; lags[i] holds run i's, in epochs, shift
// by shift. Lag is measured against a shared yardstick, not against a
// run's own recovery level — otherwise a run that never re-adapts would
// score a perfect lag by "reaching" its own collapsed throughput
// immediately. For each shift the yardstick is the best rolling-window
// throughput any of the runs reached in the segment the shift opens
// (until the next shift, or end); a run's lag is the index of its first
// window at or above lagFrac of that, and a run that never gets there
// is charged the full segment length.
func shiftLags(runs []*tuner.Trace, shifts []float64, end float64) [][]int {
	lags := make([][]int, len(runs))
	for k, from := range shifts {
		to := end
		if k+1 < len(shifts) {
			to = shifts[k+1]
		}
		best := 0.0
		for _, tr := range runs {
			best = max(best, peakWindow(segmentOf(tr, from, to), lagWindow))
		}
		for i, tr := range runs {
			lags[i] = append(lags[i], segmentLag(segmentOf(tr, from, to), lagFrac*best, lagWindow))
		}
	}
	return lags
}
