// Package tuner implements the paper's online tuners: the direct
// search methods cd-tuner (Algorithm 1), cs-tuner (Algorithm 2), and
// nm-tuner (Algorithm 3), the baseline heuristics heur1 (Balman's
// additive increase) and heur2 (Yildirim's exponential increase), and
// the static `default` setting used by the Globus transfer service.
//
// A tuner drives an xfer.Transferer one control epoch at a time: it
// picks the parameter vector for the next epoch from the throughputs
// observed so far, exactly as the paper's Python wrappers drove
// globus-url-copy. The tuned vector is mapped to transfer parameters
// by a ParamMap, so the same tuners handle the paper's 1-D experiments
// (concurrency only, §IV-A) and 2-D experiments (concurrency and
// parallelism, §IV-B).
package tuner

import (
	"errors"
	"fmt"

	"dstune/internal/directsearch"
	"dstune/internal/history"
	"dstune/internal/obs"
	"dstune/internal/trace"
	"dstune/internal/xfer"
)

// ParamMap converts a tuned integer vector into transfer parameters.
type ParamMap func(x []int) xfer.Params

// MapNC tunes concurrency only, with parallelism fixed at np — the
// paper's §IV-A setup (np = 8).
func MapNC(np int) ParamMap {
	return func(x []int) xfer.Params { return xfer.Params{NC: x[0], NP: np} }
}

// MapNCNP tunes concurrency and parallelism simultaneously — the
// paper's §IV-B setup; x is [nc, np].
func MapNCNP() ParamMap {
	return func(x []int) xfer.Params { return xfer.Params{NC: x[0], NP: x[1]} }
}

// MapNCNPPP tunes concurrency, parallelism, and pipelining — the
// disk-to-disk setting of the paper's future-work item (1); x is
// [nc, np, pp].
func MapNCNPPP() ParamMap {
	return func(x []int) xfer.Params { return xfer.Params{NC: x[0], NP: x[1], PP: x[2]} }
}

// MapFixedPP wraps m with the pipelining depth fixed at pp — for
// dataset transfers that tune fewer than three dimensions while
// keeping a static depth.
func MapFixedPP(m ParamMap, pp int) ParamMap {
	return func(x []int) xfer.Params {
		p := m(x)
		p.PP = pp
		return p
	}
}

// Space names the transfer parameters a session tunes and the bounds it
// tunes them in; Apply turns it into a Config's Box, Start and Map. It
// is the one statement of the search spaces the binaries and the
// figure harnesses offer:
//
//	{nc}          concurrency only, parallelism fixed at NP
//	{nc, np}      Two
//	{nc, np, pp}  Two on a Files transfer with no fixed PP
//
// A Files transfer that tunes fewer than three dimensions runs at a
// fixed pipelining depth: PP, or 4.
type Space struct {
	// Two tunes parallelism as well as concurrency.
	Two bool
	// Files marks a dataset (disk-to-disk) transfer, where pipelining
	// applies.
	Files bool
	// PP fixes the pipelining depth of a Files transfer; zero tunes it
	// as the third dimension under Two and fixes 4 otherwise.
	PP int
	// NP is the fixed parallelism when Two is off.
	NP int
	// MaxNC and MaxNP are the box's upper bounds (the lower bounds are
	// 1; the pipelining depth is bounded by 32).
	MaxNC, MaxNP int
}

// Apply returns cfg with Box, Start and Map set for the space. The
// search starts at the Globus defaults, xfer.DefaultDisk.
func (sp Space) Apply(cfg Config) Config {
	start := xfer.DefaultDisk()
	const maxPP, fixedPP = 32, 4
	switch {
	case sp.Two && sp.Files && sp.PP == 0:
		cfg.Box = directsearch.MustBox([]int{1, 1, 1}, []int{sp.MaxNC, sp.MaxNP, maxPP})
		cfg.Start = []int{start.NC, start.NP, start.PP}
		cfg.Map = MapNCNPPP()
		return cfg
	case sp.Two:
		cfg.Box = directsearch.MustBox([]int{1, 1}, []int{sp.MaxNC, sp.MaxNP})
		cfg.Start = []int{start.NC, start.NP}
		cfg.Map = MapNCNP()
	default:
		cfg.Box = directsearch.MustBox([]int{1}, []int{sp.MaxNC})
		cfg.Start = []int{start.NC}
		cfg.Map = MapNC(sp.NP)
	}
	if sp.Files {
		if sp.PP == 0 {
			sp.PP = fixedPP
		}
		cfg.Map = MapFixedPP(cfg.Map, sp.PP)
	}
	return cfg
}

// Config parameterizes a tuner. Box, Start, and Map are required.
type Config struct {
	// Epoch is the control epoch length e in seconds; zero selects
	// the paper's 30 s.
	Epoch float64
	// Tolerance is the significance threshold ε in percent; zero
	// selects the paper's 5%.
	Tolerance float64
	// Lambda is cs-tuner's initial step size and the offset of
	// nm-tuner's initial simplex; zero selects the paper's 8.
	Lambda float64
	// Box bounds the tuned vector.
	Box directsearch.Box
	// Start is the initial vector x0. ResolveStrategy builds the
	// strategy from another one in two cases: a History hit, and a
	// Resume checkpoint that recorded the start its run adopted.
	Start []int
	// Map converts the tuned vector to transfer parameters.
	Map ParamMap
	// Budget stops tuning once the transfer clock reaches this many
	// seconds; zero means run until the transfer completes. The
	// paper's experiments run fixed durations (e.g. 1800 s) of an
	// unbounded memory-to-memory transfer.
	Budget float64
	// Seed drives the randomized polling order of cs-tuner.
	Seed uint64
	// ObserveBestCase makes the tuners optimize the restart-free
	// (best-case) throughput instead of the observed throughput.
	// The paper's tuners observe throughput including the restart
	// overhead; when a transfer engine adapts without restarting
	// (xfer.RestartOnChange — the paper's future-work item (2)),
	// epochs that change parameters still pay a restart while
	// holding epochs do not, and that systematic jump keeps
	// re-triggering the ε-monitor. Observing the best-case rate
	// removes the artifact.
	ObserveBestCase bool
	// MaxTransientFailures is the number of consecutive transient
	// epoch failures (errors matching xfer.ErrTransient) the tuners
	// tolerate before aborting. Each tolerated failure is recorded as
	// a zero-throughput epoch, so the ε-monitor naturally re-triggers
	// a search once the transfer recovers. Zero selects 3.
	MaxTransientFailures int
	// Checkpoint, when non-nil, receives a snapshot of the run's
	// durable state after every completed control epoch (and a final
	// one when tuning is interrupted), so an aborted run can be
	// resumed later. See FileCheckpoint for the durable file form.
	Checkpoint CheckpointWriter
	// Resume, when non-nil, continues the run recorded in the
	// checkpoint instead of starting fresh: the strategy is rebuilt by
	// replaying the checkpoint's recorded epochs through it — each recorded
	// proposal verified, a divergence refused as "resume diverged at
	// epoch k", no event emitted — the recorded trace is preloaded, and
	// live tuning continues mid-trajectory from the first unrecorded
	// epoch. The checkpoint's seed overrides Seed, and its start, if it
	// recorded one, Start. The transfer passed to Run must carry the
	// checkpoint's remaining bytes and clock (see xfer.TransferState
	// and Checkpoint.Transfer).
	Resume *Checkpoint
	// Drain, when non-nil, requests a graceful stop: once the channel
	// is closed, tuning finishes the in-flight control epoch, writes a
	// final checkpoint, leaves the transfer running, and returns
	// ErrInterrupted. Cancelling Run's context instead aborts the
	// in-flight epoch immediately.
	Drain <-chan struct{}
	// Obs, when non-nil, receives the run's observations: per-epoch
	// metrics, structured events (Propose/EpochStart/EpochEnd/Observe,
	// ε-monitor retriggers, checkpoint writes), and the live state
	// served by /status. Nil — the default — disables observation at
	// zero cost; see the obs package and OBSERVABILITY.md.
	Obs *obs.SessionObs
	// History, when non-nil, is the run's knowledge plane: Run starts
	// the named strategy from its best-known vector under HistoryKey
	// instead of Start (ResolveStrategy), and a run with a HistoryKey
	// that ends cleanly appends its best epoch, as FleetConfig.History
	// has a fleet session do.
	History *history.Store
	// HistoryKey, when non-zero, is the run's identity in History, as
	// FleetSession.HistoryKey is a fleet session's.
	HistoryKey history.Key
}

// withDefaults returns cfg with zero fields replaced by defaults.
func (c Config) withDefaults() Config {
	if c.Epoch == 0 {
		c.Epoch = 30
	}
	if c.Tolerance == 0 {
		c.Tolerance = 5
	}
	if c.Lambda == 0 {
		c.Lambda = 8
	}
	if c.MaxTransientFailures == 0 {
		c.MaxTransientFailures = 3
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Box.Dim() == 0 {
		return errors.New("tuner: Box is required")
	}
	if len(c.Start) != c.Box.Dim() {
		return fmt.Errorf("tuner: Start has %d dims, Box has %d", len(c.Start), c.Box.Dim())
	}
	if c.Map == nil {
		return errors.New("tuner: Map is required")
	}
	// NaN compares false both ways: it would pass a < 0 check, survive
	// withDefaults' == 0 test, and make every dc > Tolerance gate false.
	if c.Epoch < 0 || !(c.Tolerance >= 0) || !(c.Lambda >= 0) || c.Budget < 0 || c.MaxTransientFailures < 0 {
		return errors.New("tuner: negative or NaN parameter")
	}
	return nil
}

// EpochResult is one control epoch of a tuned transfer.
type EpochResult struct {
	// Epoch is the zero-based control epoch index c.
	Epoch int
	// X is the tuned vector used for the epoch.
	X []int
	// Report is the transfer's account of the epoch.
	Report xfer.Report
}

// Trace is the complete record of one tuned transfer.
type Trace struct {
	// Tuner is the tuner's name.
	Tuner string
	// Results holds one entry per control epoch in order.
	Results []EpochResult
}

// add appends an epoch result.
func (tr *Trace) add(x []int, r xfer.Report) {
	xc := make([]int, len(x))
	copy(xc, x)
	tr.Results = append(tr.Results, EpochResult{Epoch: len(tr.Results), X: xc, Report: r})
}

// Throughput returns the observed-throughput series, one sample per
// epoch at the epoch's end time.
func (tr *Trace) Throughput() *trace.Series {
	s := &trace.Series{Name: tr.Tuner + "/throughput"}
	for _, r := range tr.Results {
		s.Add(r.Report.End, r.Report.Throughput)
	}
	return s
}

// BestCase returns the restart-overhead-free throughput series.
func (tr *Trace) BestCase() *trace.Series {
	s := &trace.Series{Name: tr.Tuner + "/bestcase"}
	for _, r := range tr.Results {
		s.Add(r.Report.End, r.Report.BestCase)
	}
	return s
}

// Param returns the series of tuned coordinate dim over time.
func (tr *Trace) Param(dim int) *trace.Series {
	s := &trace.Series{Name: fmt.Sprintf("%s/x%d", tr.Tuner, dim)}
	for _, r := range tr.Results {
		if dim < len(r.X) {
			s.Add(r.Report.End, float64(r.X[dim]))
		}
	}
	return s
}

// MeanThroughput returns the byte-weighted mean observed throughput
// over the whole transfer: total bytes / total time.
func (tr *Trace) MeanThroughput() float64 {
	var bytes, dur float64
	for _, r := range tr.Results {
		bytes += r.Report.Bytes
		dur += r.Report.End - r.Report.Start
	}
	if dur == 0 {
		return 0
	}
	return bytes / dur
}

// MeanBestCase returns total bytes / total live (non-restart) time.
func (tr *Trace) MeanBestCase() float64 {
	var bytes, live float64
	for _, r := range tr.Results {
		bytes += r.Report.Bytes
		live += (r.Report.End - r.Report.Start) - r.Report.DeadTime
	}
	if live <= 0 {
		return 0
	}
	return bytes / live
}

// SteadyThroughput returns the mean observed throughput of epochs
// ending at or after t0, for steady-state comparisons.
func (tr *Trace) SteadyThroughput(t0 float64) float64 {
	var sum float64
	var n int
	for _, r := range tr.Results {
		if r.Report.End >= t0 {
			sum += r.Report.Throughput
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// WindowMean is the mean observed throughput of the epochs rs.
func WindowMean(rs []EpochResult) float64 {
	sum := 0.0
	for _, r := range rs {
		sum += r.Report.Throughput
	}
	return sum / float64(len(rs))
}

// FirstWindow returns the index of the first epoch in rs opening a
// rolling window of `window` epochs (at least one) whose mean
// throughput reaches target, or -1 when no window does — rs being
// shorter than one window included. Every "when did it get there"
// quantity — convergence time, epochs to the critical point,
// re-adaptation lag — is this index.
func FirstWindow(rs []EpochResult, window int, target float64) int {
	window = max(window, 1)
	for i := 0; i+window <= len(rs); i++ {
		if WindowMean(rs[i:i+window]) >= target {
			return i
		}
	}
	return -1
}

// SteadyMean is the mean throughput of the trace's last `window`
// epochs — its steady value; 0 for traces shorter than the window.
func (tr *Trace) SteadyMean(window int) float64 {
	window = max(window, 1)
	n := len(tr.Results)
	if n < window {
		return 0
	}
	return WindowMean(tr.Results[n-window:])
}

// ConvergenceTime returns the transfer time (the epoch-start of the
// first window) at which the rolling mean throughput over `window`
// epochs first reaches frac of the steady value (SteadyMean). It
// returns -1 when the trace is shorter than the window or the
// threshold is never reached. The paper quotes such times in §IV-A:
// cd-tuner ~100 s unloaded, cs/nm ~500-600 s.
func (tr *Trace) ConvergenceTime(frac float64, window int) float64 {
	i := FirstWindow(tr.Results, window, frac*tr.SteadyMean(window))
	if i < 0 {
		return -1
	}
	return tr.Results[i].Report.Start
}

// BestEpoch returns the vector and observed throughput of the
// highest-throughput epoch, the datum the history knowledge plane
// records after a run. Epochs without positive throughput (transient
// failures, empty epochs) never win; ok is false when no epoch
// qualifies.
func (tr *Trace) BestEpoch() (x []int, throughput float64, ok bool) {
	for _, r := range tr.Results {
		if r.Report.Throughput > throughput {
			x, throughput, ok = r.X, r.Report.Throughput, true
		}
	}
	if ok {
		x = append([]int(nil), x...)
	}
	return x, throughput, ok
}

// FinalX returns the tuned vector of the last epoch, or nil when no
// epoch ran.
func (tr *Trace) FinalX() []int {
	if len(tr.Results) == 0 {
		return nil
	}
	return tr.Results[len(tr.Results)-1].X
}

// delta returns the paper's relative change 100*(f1-f0)/f0 in percent,
// treating a zero baseline as an infinite change when f1 moved.
func delta(f0, f1 float64) float64 {
	if f0 == 0 {
		if f1 == 0 {
			return 0
		}
		return 1e9
	}
	return 100 * (f1 - f0) / f0
}
