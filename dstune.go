// Package dstune improves data transfer throughput with direct search
// optimization, reproducing Balaprakash et al., "Improving Data
// Transfer Throughput with Direct Search Optimization" (ICPP 2016).
//
// The library tunes the number of parallel TCP streams of a GridFTP-
// style transfer — concurrency (processes) times parallelism (streams
// per process) — online, one control epoch at a time, using three
// direct search methods: coordinate descent (cd-tuner), compass search
// (cs-tuner), and Nelder–Mead (nm-tuner), plus two baseline heuristics
// from the literature (heur1, heur2) and the static Globus default.
//
// Transfers are driven through the Transferer interface, with two
// implementations:
//
//   - a deterministic simulated testbed (NewFabric / Testbed presets)
//     reproducing the paper's WAN endpoints, including TCP congestion
//     control dynamics, endpoint CPU contention, external load, and
//     process-restart overhead; and
//   - a real-socket striped transfer client/server (ServeGridFTP /
//     NewTransferClient) for memory-to-memory runs over actual TCP.
//
// Quickstart (simulated):
//
//	tb := dstune.ANLtoUChicago()
//	fabric, _, err := tb.NewFabric(42)
//	// handle err
//	fabric.SetLoad(dstune.ConstantLoad(dstune.Load{Cmp: 16}), nil)
//	tr, err := fabric.NewTransfer(dstune.TransferConfig{
//		Name: "demo", Bytes: dstune.Unbounded,
//	})
//	// handle err
//	cfg := dstune.TunerConfig{
//		Box:    dstune.MustBox([]int{1}, []int{128}),
//		Start:  []int{2},
//		Map:    dstune.MapNC(8),
//		Budget: 1800,
//	}
//	trace, err := dstune.NewNM(cfg).Tune(context.Background(), tr)
//	// trace.MeanThroughput(), trace.Param(0), ...
//
// Tuned runs are interruptible and durable: cancelling the Tune
// context aborts the in-flight epoch promptly, TunerConfig.Drain
// stops cleanly at the next epoch boundary, TunerConfig.Checkpoint
// persists the run's state after every epoch, and TunerConfig.Resume
// continues a checkpointed run mid-search (see Checkpoint).
//
// The experiment harnesses that regenerate every figure of the paper
// live behind Fig1, TuneConcurrency, TuneBoth, CompareHeuristics, and
// Simultaneous; cmd/figures prints them and EXPERIMENTS.md records
// paper-vs-measured values.
package dstune

import (
	"io"
	"net"

	"dstune/internal/dataset"
	"dstune/internal/directsearch"
	"dstune/internal/endpoint"
	"dstune/internal/experiment"
	"dstune/internal/faultnet"
	"dstune/internal/gridftp"
	"dstune/internal/history"
	"dstune/internal/load"
	"dstune/internal/netem"
	"dstune/internal/obs"
	"dstune/internal/report"
	"dstune/internal/service"
	"dstune/internal/sim"
	"dstune/internal/trace"
	"dstune/internal/tuner"
	"dstune/internal/xfer"
)

// Time series produced by traces.
type (
	// Series is a named time series of (t, v) samples.
	Series = trace.Series
	// SeriesPoint is one sample of a Series.
	SeriesPoint = trace.Point
)

// WriteSeriesCSV writes series in long format (series,t,v).
func WriteSeriesCSV(w io.Writer, series ...*Series) error {
	return trace.WriteCSV(w, series...)
}

// WriteSeriesJSON writes series as a JSON array.
func WriteSeriesJSON(w io.Writer, series ...*Series) error {
	return trace.WriteJSON(w, series...)
}

// Sparkline renders a series as a fixed-width ASCII sparkline.
func Sparkline(s *Series, width int) string { return trace.Sparkline(s, width) }

// HTML reporting.
type (
	// HTMLReport assembles charts, tiles, and tables into one
	// self-contained HTML page with SVG charts (hover tooltips,
	// legends, table views, light/dark).
	HTMLReport = report.Report
	// ReportLineChart is a multi-series line chart section.
	ReportLineChart = report.LineChart
	// ReportLineSeries is one series of a ReportLineChart.
	ReportLineSeries = report.LineSeries
	// ReportBarChart is a grouped column chart section.
	ReportBarChart = report.BarChart
	// ReportBarGroup is one category of a ReportBarChart.
	ReportBarGroup = report.BarGroup
	// ReportTile is one stat tile of a KPI row.
	ReportTile = report.Tile
)

// Transfer parameters and reports.
type (
	// Params are the tunable transfer parameters: concurrency (NC)
	// and parallelism (NP).
	Params = xfer.Params
	// Report describes one control epoch of a transfer.
	Report = xfer.Report
	// Transferer runs a transfer one control epoch at a time; it is
	// the black box the tuners optimize.
	Transferer = xfer.Transferer
	// RestartPolicy controls when a simulated transfer pays process
	// restart dead time.
	RestartPolicy = xfer.RestartPolicy
	// TransferState is the durable state of a transfer captured for
	// checkpointing (acked/remaining bytes, cumulative clock, token).
	TransferState = xfer.TransferState
)

// Restart policies.
const (
	// RestartEveryEpoch restarts processes on every Run, as the
	// paper's tuner wrappers do.
	RestartEveryEpoch = xfer.RestartEveryEpoch
	// RestartOnChange restarts only when parameters change — the
	// paper's "ideal scenario".
	RestartOnChange = xfer.RestartOnChange
)

// Unbounded is the transfer size for open-ended runs.
var Unbounded = xfer.Unbounded

// DefaultParams returns the Globus service default for large files:
// concurrency 2, parallelism 8.
func DefaultParams() Params { return xfer.Default() }

// Simulated fabric.
type (
	// Fabric is a simulated testbed: one source endpoint, network
	// paths, external load, and any number of lockstep transfers.
	Fabric = xfer.Fabric
	// FabricConfig configures a Fabric.
	FabricConfig = xfer.FabricConfig
	// TransferConfig describes one transfer on a Fabric.
	TransferConfig = xfer.TransferConfig
	// SimTransfer is a simulated transfer; it implements Transferer.
	SimTransfer = xfer.Sim
	// HostConfig describes a source endpoint (cores, pump rate,
	// scheduler behaviour, restart cost, NIC).
	HostConfig = endpoint.Config
	// PathConfig describes a WAN path (capacity, RTT, loss, buffer).
	PathConfig = netem.Config
	// Path is a network path attached to a Fabric.
	Path = netem.Path
)

// NewFabric builds a simulation fabric; add paths with AddPath before
// creating transfers.
func NewFabric(cfg FabricConfig) (*Fabric, error) { return xfer.NewFabric(cfg) }

// External load.
type (
	// Load is the external load at one instant: Tfr competing
	// transfer streams and Cmp compute jobs at the source.
	Load = load.Load
	// LoadSchedule yields the external load at any virtual time.
	LoadSchedule = load.Schedule
	// LoadSegment is one piece of a piecewise-constant schedule.
	LoadSegment = load.Segment
)

// ConstantLoad returns a time-invariant schedule.
func ConstantLoad(l Load) LoadSchedule { return load.Constant(l) }

// NoLoad returns the empty schedule.
func NoLoad() LoadSchedule { return load.None() }

// StepLoad switches from before to after at time at.
func StepLoad(at float64, before, after Load) LoadSchedule { return load.Step(at, before, after) }

// PiecewiseLoad builds a piecewise-constant schedule.
func PiecewiseLoad(segs ...LoadSegment) LoadSchedule { return load.Piecewise(segs...) }

// Tuners.
type (
	// Tuner adapts a transfer's parameters over its lifetime.
	Tuner = tuner.Tuner
	// TunerConfig parameterizes a tuner (epoch, tolerance, bounds,
	// starting point, budget).
	TunerConfig = tuner.Config
	// ParamMap converts a tuned integer vector to transfer
	// parameters.
	ParamMap = tuner.ParamMap
	// Trace is the per-epoch record of one tuned transfer.
	Trace = tuner.Trace
	// EpochResult is one control epoch within a Trace.
	EpochResult = tuner.EpochResult
	// RestartFrom selects the inner-search restart point of cs-tuner
	// and nm-tuner.
	RestartFrom = tuner.RestartFrom
)

// Inner-search restart points.
const (
	// FromOrigin restarts from x0, as in the paper's pseudocode.
	FromOrigin = tuner.FromOrigin
	// FromCurrent restarts from the current incumbent.
	FromCurrent = tuner.FromCurrent
)

// MapNC tunes concurrency only, with parallelism fixed at np.
func MapNC(np int) ParamMap { return tuner.MapNC(np) }

// MapNCNP tunes concurrency and parallelism simultaneously.
func MapNCNP() ParamMap { return tuner.MapNCNP() }

// NewCD returns the coordinate-descent tuner (Algorithm 1).
func NewCD(cfg TunerConfig) Tuner { return tuner.NewCD(cfg) }

// NewCS returns the compass-search tuner (Algorithm 2).
func NewCS(cfg TunerConfig) Tuner { return tuner.NewCS(cfg) }

// NewNM returns the Nelder–Mead tuner (Algorithm 3).
func NewNM(cfg TunerConfig) Tuner { return tuner.NewNM(cfg) }

// NewModel returns the empirical model-fitting baseline from the
// paper's related work (Yildirim/Yin): sample, fit the
// parallel-stream throughput curve, jump to its optimum.
func NewModel(cfg TunerConfig) Tuner { return tuner.NewModel(cfg) }

// NewStatic returns the non-adaptive baseline (the paper's `default`).
func NewStatic(cfg TunerConfig) Tuner { return tuner.NewStatic(cfg) }

// Strategy state machines and the one epoch engine. Every tuner above
// is a Strategy (an explicit propose/observe state machine with
// JSON-serializable state) stepped by the engine that owns the epoch
// loop, budget, transient tolerance, and checkpointing. Driver (one
// transfer, run to completion) and Fleet (N sessions) are its front
// doors here, dstuned's SessionRuntime the third; custom strategies get
// the same machinery through any of them.
type (
	// Strategy is a tuner's decision kernel: Propose a vector, run an
	// epoch, Observe the report, repeat. Snapshot/Restore round-trip
	// its complete state for O(1) checkpoint resume.
	Strategy = tuner.Strategy
	// Driver runs one Strategy against one Transferer to completion: a
	// one-transfer session of the epoch engine, stepped until done.
	Driver = tuner.Driver
	// Fleet drives N (strategy, transfers) sessions concurrently, each
	// on its own goroutine, and returns their results in declaration
	// order.
	Fleet = tuner.Fleet
	// FleetConfig parameterizes a Fleet (epoch, budget, transient
	// tolerance).
	FleetConfig = tuner.FleetConfig
	// FleetSession is one (strategy, transfers) pairing of a Fleet.
	FleetSession = tuner.FleetSession
	// FleetSessionResult is one session's outcome: per-transfer
	// traces, total bytes, terminal error.
	FleetSessionResult = tuner.SessionResult
)

// NewStrategy builds the named strategy — one of "default",
// "cd-tuner", "cs-tuner", "nm-tuner", "heur1", "heur2", "model",
// "two-phase", "rl-bandit", "rl-q", or any of them under a "warm:"
// prefix (e.g. "warm:cs-tuner") — from cfg. The warm and two-phase
// forms built here are cold (no history store); use the NewWarm /
// NewTwoPhaseTuner tuners to attach one.
func NewStrategy(name string, cfg TunerConfig) (Strategy, error) { return tuner.NewStrategy(name, cfg) }

// KnownStrategy reports whether name resolves to a strategy
// NewStrategy can build, including "warm:"-prefixed forms.
func KnownStrategy(name string) bool { return tuner.KnownStrategy(name) }

// The learning plane: learned strategies under the same Strategy
// contract as the direct searches, with their full policy state
// (value tables, visit counts, RNG position) in the exported JSON
// snapshot.
type (
	// RLBanditStrategy is the contextual ε-greedy bandit over a
	// geometric (nc, np[, pp]) arm grid with load-level context
	// buckets ("rl-bandit").
	RLBanditStrategy = tuner.RLBanditStrategy
	// RLBanditState is rl-bandit's complete serializable state.
	RLBanditState = tuner.RLBanditState
	// RLQStrategy is tabular Q-learning over (load bucket, vector)
	// states and compass-move-or-stay actions ("rl-q").
	RLQStrategy = tuner.RLQStrategy
	// RLQState is rl-q's complete serializable state.
	RLQState = tuner.RLQState
)

// NewNamed returns the named strategy under the standard Driver — the
// by-name counterpart of the NewCD/NewCS/... constructors, covering
// every name KnownStrategy accepts.
func NewNamed(name string, cfg TunerConfig) (Tuner, error) { return tuner.NewNamed(name, cfg) }

// NewDriver returns a Driver for cfg; its Run method drives any
// Strategy against a Transferer.
func NewDriver(cfg TunerConfig) *Driver { return tuner.NewDriver(cfg) }

// NewFleet returns a Fleet over the given sessions; its Run method
// drives them all concurrently until each ends.
func NewFleet(cfg FleetConfig, sessions ...FleetSession) *Fleet {
	return tuner.NewFleet(cfg, sessions...)
}

// Direct search (usable standalone for offline optimization).
type (
	// Box is a bounded integer search domain; its Clamp method is
	// the paper's fBnd.
	Box = directsearch.Box
	// Searcher is the ask/tell optimizer interface.
	Searcher = directsearch.Searcher
)

// MustBox builds a Box from bounds, panicking on invalid input.
func MustBox(lo, hi []int) Box { return directsearch.MustBox(lo, hi) }

// MaximizeSearch drives a Searcher against an objective function.
func MaximizeSearch(s Searcher, f func([]int) float64, maxEvals int) ([]int, float64) {
	return directsearch.Maximize(s, f, maxEvals)
}

// NewCompassSearch returns a standalone compass search over box
// starting at start, with initial step lambda (0 selects 8) and a
// seeded polling order.
func NewCompassSearch(start []int, box Box, lambda float64, seed uint64) Searcher {
	return directsearch.NewCompass(start, box, directsearch.CompassConfig{Lambda: lambda}, sim.NewRNG(seed))
}

// NewNelderMeadSearch returns a standalone Nelder–Mead search over box
// starting at start, with the customary coefficients.
func NewNelderMeadSearch(start []int, box Box) Searcher {
	return directsearch.NewNelderMead(start, box, directsearch.NMConfig{})
}

// Real-socket transfers.
type (
	// GridFTPServer is the receiving end of the striped memory-to-
	// memory protocol.
	GridFTPServer = gridftp.Server
	// TransferClient is the striped sender; it implements
	// Transferer against wall-clock time.
	TransferClient = gridftp.Client
	// TransferClientConfig configures a TransferClient.
	TransferClientConfig = gridftp.ClientConfig
	// Shaper emulates endpoint contention on fast links so the
	// tuners have an interior optimum to find.
	Shaper = gridftp.Shaper
)

// ServeGridFTP starts a transfer server on addr (e.g. "127.0.0.1:0").
func ServeGridFTP(addr string) (*GridFTPServer, error) { return gridftp.Serve(addr) }

// ServeGridFTPListener starts a transfer server accepting on a
// caller-supplied listener — e.g. one wrapped with InjectFaults.
// Closing the server closes the listener.
func ServeGridFTPListener(ln net.Listener) *GridFTPServer { return gridftp.ServeListener(ln) }

// NewTransferClient returns a real-socket transfer client.
func NewTransferClient(cfg TransferClientConfig) (*TransferClient, error) {
	return gridftp.NewClient(cfg)
}

// Fault tolerance on the real-socket path.
type (
	// RetryConfig governs a TransferClient's per-connection dial
	// retries (attempts, exponential backoff, cap).
	RetryConfig = gridftp.RetryConfig
	// DialFunc is a pluggable dialer for a TransferClient, e.g. a
	// fault injector's Dial.
	DialFunc = gridftp.DialFunc
	// FaultConfig selects the faults a FaultInjector produces (seeded
	// dial-refusal probability, mid-stream reset, added latency).
	FaultConfig = faultnet.Config
	// FaultInjector wraps dials and listeners with deterministic,
	// seeded network faults for resilience testing.
	FaultInjector = faultnet.Injector
)

// ErrTransient marks transfer errors that may clear on their own
// (dial timeouts, resets, partial stripe failures); the tuners record
// such epochs as zero-throughput and keep tuning. Test with
// errors.Is(err, ErrTransient).
var ErrTransient = xfer.ErrTransient

// NewFaultInjector returns a deterministic network fault injector;
// use its Dial as a TransferClientConfig.Dialer or wrap a listener
// with InjectFaults.
func NewFaultInjector(cfg FaultConfig) *FaultInjector { return faultnet.New(cfg) }

// InjectFaults wraps ln so accepted connections carry in's faults.
func InjectFaults(in *FaultInjector, ln net.Listener) net.Listener { return in.Listen(ln) }

// NoTolerance and NoLambda make an explicit zero configurable in
// TunerConfig, where the zero value selects the paper's defaults.
var (
	NoTolerance = tuner.NoTolerance
	NoLambda    = tuner.NoLambda
)

// Checkpoint and resume.
type (
	// Checkpoint is the durable state of a tuned transfer, written
	// after every control epoch; assign one to TunerConfig.Resume to
	// continue the run mid-search.
	Checkpoint = tuner.Checkpoint
	// CheckpointEpoch is one recorded control epoch of a Checkpoint.
	CheckpointEpoch = tuner.EpochRecord
	// CheckpointWriter persists checkpoints; assign one to
	// TunerConfig.Checkpoint. Each Save carries the complete current
	// state; its Trace is a read-only view of the engine's records —
	// do not mutate it; retaining it is safe, the engine only appends.
	// A writer that is also an io.Closer is closed when the run ends.
	CheckpointWriter = tuner.CheckpointWriter
	// CheckpointFunc adapts a function to CheckpointWriter.
	CheckpointFunc = tuner.CheckpointFunc
	// FileCheckpoint is a CheckpointWriter targeting a pair of files: a
	// fixed-size head at its path, replaced atomically (temp file +
	// rename) on every save, and an append-only epoch log at
	// path+".log" that each save extends by the new records before the
	// head counts them — so a save costs the same however long the
	// run. Move or copy the two together.
	FileCheckpoint = tuner.FileCheckpoint
)

// NewFileCheckpoint returns a checkpoint writer targeting path.
func NewFileCheckpoint(path string) *FileCheckpoint { return tuner.NewFileCheckpoint(path) }

// LoadCheckpoint reads and validates a checkpoint written by a
// FileCheckpoint — the head at path and the epoch log beside it — or a
// single-file checkpoint written by an earlier release.
func LoadCheckpoint(path string) (*Checkpoint, error) { return tuner.LoadCheckpoint(path) }

// ErrInterrupted is returned by Tune when the run was stopped
// gracefully by the TunerConfig.Drain channel: the in-flight epoch
// completed, the final checkpoint was written, and the transfer was
// left running so a later session can resume it.
var ErrInterrupted = tuner.ErrInterrupted

// Historical knowledge plane: an append-only store of past transfer
// outcomes keyed by endpoint identity, dataset size class, and
// external-load fingerprint, and the strategies that warm-start from
// it (see DESIGN.md §3d).
type (
	// HistoryStore is a crash-safe JSONL store of best-known transfer
	// outcomes; query it with Lookup, extend it with Add.
	HistoryStore = history.Store
	// HistoryKey identifies one operating regime in a HistoryStore:
	// endpoint identity, dataset size class, external-load class.
	HistoryKey = history.Key
	// HistoryRecord is one recorded outcome: the key, the parameter
	// vector, its observed throughput, and run metadata.
	HistoryRecord = history.Record
	// HistoryEntry is a Lookup result: the best-known vector, its
	// throughput, and the key distance of the match (0 = exact).
	HistoryEntry = history.Entry
)

// ErrHistoryCorrupt wraps OpenHistory errors reporting damaged lines
// that were skipped; the returned store holds the intact records and
// remains fully usable.
var ErrHistoryCorrupt = history.ErrCorrupt

// OpenHistory opens (creating if absent) the transfer-history store at
// path. Damaged lines — a torn tail from a crash mid-append, or
// hand-edited garbage — are skipped and reported via an error wrapping
// ErrHistoryCorrupt; the store is unusable only when it is nil.
func OpenHistory(path string) (*HistoryStore, error) { return history.Open(path) }

// NewMemHistory returns an in-memory history store (tests, one-shot
// studies).
func NewMemHistory() *HistoryStore { return history.NewMemStore() }

// NewWarm returns the warm-started form of the named strategy under
// the standard Driver; its checkpoints carry the "warm:<inner>" name
// and resume like any other run.
func NewWarm(inner string, cfg TunerConfig, store *HistoryStore, key HistoryKey) (Tuner, error) {
	return tuner.NewWarm(inner, cfg, store, key)
}

// NewTwoPhaseTuner returns the two-phase tuner: a coarse pass over
// history-seeded candidates, then a fine compass search around the
// coarse winner. The store may be nil (cold candidates).
func NewTwoPhaseTuner(cfg TunerConfig, store *HistoryStore, key HistoryKey) Tuner {
	return tuner.NewTwoPhaseTuner(cfg, store, key)
}

// Observability: the observation plane documented in OBSERVABILITY.md.
type (
	// Observer is the top-level observation handle: a metrics
	// registry, a structured event recorder, and the per-session views
	// behind the /status endpoint. Assign Observer.Session(id) to
	// TunerConfig.Obs / TransferClientConfig.Obs, or the Observer
	// itself to FleetConfig.Obs / FaultConfig.Obs.
	Observer = obs.Observer
	// ObserverConfig configures NewObserver: the event ring capacity
	// and an optional JSONL trace sink.
	ObserverConfig = obs.ObserverConfig
	// SessionObs is one session's observation view, created by
	// Observer.Session.
	SessionObs = obs.SessionObs
	// MetricsRegistry holds metric families and renders Prometheus
	// text exposition.
	MetricsRegistry = obs.Registry
	// EventRecorder buffers structured events and mirrors them to a
	// JSONL sink.
	EventRecorder = obs.Recorder
	// Event is one structured trace record.
	Event = obs.Event
	// EventType names one kind of structured event.
	EventType = obs.EventType
	// ObsEndpoint is a live introspection server started by
	// Observer.Serve, exposing /metrics, /status, /debug/vars, and
	// /debug/pprof.
	ObsEndpoint = obs.Endpoint
	// SessionStatus is one session's live state in the /status
	// document.
	SessionStatus = obs.SessionStatus
)

// NewObserver returns an observation handle; thread it through the
// configs above and expose it with Observer.Serve.
func NewObserver(cfg ObserverConfig) *Observer { return obs.NewObserver(cfg) }

// Experiments (the paper's evaluation).
type (
	// Testbed is a named source endpoint and WAN path preset.
	Testbed = experiment.Testbed
	// RunConfig carries the knobs shared by the figure harnesses.
	RunConfig = experiment.RunConfig
	// Fig1Config parameterizes the Figure 1 sweep.
	Fig1Config = experiment.Fig1Config
	// Fig1Result holds Figure 1's boxplot statistics.
	Fig1Result = experiment.Fig1Result
	// TuningResult holds the traces of several tuners run under
	// identical conditions (Figures 5-10).
	TuningResult = experiment.TuningResult
	// SimultaneousResult holds Figure 11's two concurrently tuned
	// transfers.
	SimultaneousResult = experiment.SimultaneousResult
	// Improvement summarizes one scenario's default-vs-tuner gain.
	Improvement = experiment.Improvement
)

// ANLtoUChicago returns the paper's 40 Gb/s short-RTT testbed.
func ANLtoUChicago() Testbed { return experiment.ANLtoUChicago() }

// ANLtoTACC returns the paper's 20 Gb/s, 33 ms testbed.
func ANLtoTACC() Testbed { return experiment.ANLtoTACC() }

// Fig1 reproduces the Figure 1 concurrency sweep.
func Fig1(tb Testbed, cfg Fig1Config) (*Fig1Result, error) { return experiment.Fig1(tb, cfg) }

// Fig5Loads returns the five load scenarios of Figures 5-7.
func Fig5Loads() []Load { return experiment.Fig5Loads() }

// TuneConcurrency reproduces one subfigure of Figures 5-7.
func TuneConcurrency(tb Testbed, l Load, rc RunConfig) (*TuningResult, error) {
	return experiment.TuneConcurrency(tb, l, rc)
}

// TuneBoth reproduces Figures 8/9 (two-parameter tuning, varying
// load).
func TuneBoth(tb Testbed, rc RunConfig) (*TuningResult, error) {
	return experiment.TuneBoth(tb, rc)
}

// CompareHeuristics reproduces Figure 10 (nm-tuner vs heur1/heur2).
func CompareHeuristics(tb Testbed, rc RunConfig) (*TuningResult, error) {
	return experiment.CompareHeuristics(tb, rc)
}

// Simultaneous reproduces Figure 11 (two concurrently tuned
// transfers sharing the source NIC).
func Simultaneous(tunerName string, rc RunConfig) (*SimultaneousResult, error) {
	return experiment.Simultaneous(tunerName, rc)
}

// Improvements derives the §IV-A claims (gain factors, restart
// overheads) from tuning results.
func Improvements(results []*TuningResult) []Improvement {
	return experiment.Improvements(results)
}

// RenderImprovements formats the claims table of Improvements.
func RenderImprovements(imps []Improvement) string {
	return experiment.RenderImprovements(imps)
}

// Disk-to-disk transfers (the paper's future-work item (1)).
type (
	// Dataset is an ordered set of files for a disk-to-disk
	// transfer.
	Dataset = dataset.Dataset
	// DatasetFile is one file of a Dataset.
	DatasetFile = dataset.File
	// DiskScenario is one disk workload regime (file-size mix,
	// storage bandwidth, per-file latency).
	DiskScenario = experiment.DiskScenario
)

// UniformDataset returns n files of identical size.
func UniformDataset(n int, size int64) Dataset { return dataset.Uniform(n, size) }

// ManySmallFiles returns the latency-bound regime: n files of 1 MB.
func ManySmallFiles(n int) Dataset { return dataset.ManySmall(n) }

// MaterializeDataset creates the dataset's files on disk under dir
// (sparse, size-exact), ready to serve as a TransferClient SourceDir.
// Existing files of the right size are left alone, so re-running
// against a warm directory is cheap.
func MaterializeDataset(dir string, d Dataset) error { return dataset.Materialize(dir, d) }

// MapNCNPPP tunes concurrency, parallelism, and pipelining; x is
// [nc, np, pp].
func MapNCNPPP() ParamMap { return tuner.MapNCNPPP() }

// MapFixedPP wraps m with the pipelining depth fixed at pp — for
// dataset transfers that tune fewer than three dimensions.
func MapFixedPP(m ParamMap, pp int) ParamMap { return tuner.MapFixedPP(m, pp) }

// DiskScenarios returns the three disk workload regimes (many-small,
// lognormal-mix, few-huge), deterministic per seed.
func DiskScenarios(seed uint64) []DiskScenario { return experiment.DiskScenarios(seed) }

// TuneDisk runs the disk-to-disk comparison for one scenario: the
// static disk default against cs-tuner and nm-tuner tuning
// [nc, np, pp].
func TuneDisk(tb Testbed, sc DiskScenario, rc RunConfig) (*TuningResult, error) {
	return experiment.TuneDisk(tb, sc, rc)
}

// FilesMoved sums the files completed across a trace.
func FilesMoved(tr *Trace) int { return experiment.FilesMoved(tr) }

// Joint (endpoint-level) tuning of several transfers — the paper's
// future-work item (4).
type (
	// JointTuner optimizes several transfers as one direct search
	// over the concatenated parameter vector, maximizing the
	// weighted aggregate throughput.
	JointTuner = tuner.Joint
	// JointTunerConfig parameterizes a JointTuner.
	JointTunerConfig = tuner.JointConfig
	// JointComparison holds the joint-vs-independent study results.
	JointComparison = experiment.JointComparison
)

// NewJointNM returns a joint tuner driven by Nelder–Mead.
func NewJointNM(cfg JointTunerConfig) *JointTuner { return tuner.NewJointNM(cfg) }

// JointVsIndependent runs the Figure 11 scenario twice — independent
// nm-tuners vs one joint nm search — and returns both outcomes.
func JointVsIndependent(rc RunConfig) (*JointComparison, error) {
	return experiment.JointVsIndependent(rc)
}

// TunerNames lists the tuners in the paper's presentation order.
func TunerNames() []string { return experiment.TunerNames() }

// ThirdParty runs the tuners under bursty third-party network traffic
// (n background streams toggling every period seconds) — the traffic
// class the paper could not control on its production links.
func ThirdParty(tb Testbed, n int, period float64, rc RunConfig) (*TuningResult, error) {
	return experiment.ThirdParty(tb, n, period, rc)
}

// ConvergenceTimes returns each tuner's time to reach frac of its
// steady throughput (rolling window of `window` epochs).
func ConvergenceTimes(res *TuningResult, frac float64, window int) map[string]float64 {
	return experiment.ConvergenceTimes(res, frac, window)
}

// CompareModel pits the related-work empirical model baseline against
// nm-tuner and default under the Figure 10 varying load.
func CompareModel(tb Testbed, rc RunConfig) (*TuningResult, error) {
	return experiment.CompareModel(tb, rc)
}

type (
	// WarmStartCell is one (tuner, load) cell of a WarmStartStudy.
	WarmStartCell = experiment.WarmStartCell
	// WarmStartResult holds a warm-vs-cold study over a load sweep.
	WarmStartResult = experiment.WarmStartResult
)

// WarmStartStudy measures what the history knowledge plane buys: each
// named tuner runs cold, records its best epoch, and reruns
// warm-started on an identically seeded fabric, for every load in the
// sweep. frac and window parameterize the critical-point detector.
func WarmStartStudy(tb Testbed, names []string, loads []Load, rc RunConfig, frac float64, window int) (*WarmStartResult, error) {
	return experiment.WarmStartStudy(tb, names, loads, rc, frac, window)
}

type (
	// DynamicSchedule pairs a named load schedule with its shift
	// times for the dynamic-load study.
	DynamicSchedule = experiment.DynamicSchedule
	// DynamicLoadCell is one (tuner, schedule) run's scores: integral
	// volume, mean throughput, per-shift re-adaptation lags.
	DynamicLoadCell = experiment.DynamicLoadCell
	// DynamicLoadResult holds a dynamic-load study's cells and the
	// lag-detector settings.
	DynamicLoadResult = experiment.DynamicLoadResult
	// DynamicLoadConfig parameterizes DynamicLoadStudy.
	DynamicLoadConfig = experiment.DynamicLoadConfig
)

// DynamicLoadStudy judges learned strategies against direct search on
// dynamic load: every tuner crossed with every schedule on one
// simulated testbed, scoring integral throughput and the re-adaptation
// lag after each load shift (measured against the best rolling-window
// throughput any contender reached in that post-shift segment).
func DynamicLoadStudy(tb Testbed, cfg DynamicLoadConfig) (*DynamicLoadResult, error) {
	return experiment.DynamicLoadStudy(tb, cfg)
}

// The service plane: a long-running, crash-safe, multi-tenant tuning
// daemon (cmd/dstuned) running many concurrent sessions, each on its
// own goroutine at its own pace.
type (
	// ServiceConfig configures a tuning daemon supervisor: state
	// directory, admission limits, and wiring.
	ServiceConfig = service.Config
	// ServiceLimits bounds admission: fleet-wide active/queued caps,
	// per-tenant quotas, and the tenant transient-fault budget.
	ServiceLimits = service.Limits
	// Supervisor owns the daemon's sessions: admission, execution,
	// journaling, checkpointing, and crash re-adoption.
	Supervisor = service.Supervisor
	// JobSpec is one tuning job as submitted over the control API.
	JobSpec = service.JobSpec
	// JobStatus is the control API's view of one job.
	JobStatus = service.JobStatus
	// JobState labels where a job is in its lifecycle.
	JobState = service.JobState
	// RejectError reports an admission refusal with its reason and a
	// suggested retry delay.
	RejectError = service.RejectError
	// AdoptionRecord describes one in-flight session re-adopted from
	// the journal after a crash.
	AdoptionRecord = service.AdoptionRecord
	// ServiceTransferFactory overrides how the supervisor builds the
	// data plane for a job (tests inject in-memory transfers here).
	ServiceTransferFactory = service.TransferFactory
)

// Job lifecycle states reported by the control API.
const (
	// JobQueued: accepted and journaled, waiting for a running slot.
	JobQueued = service.JobQueued
	// JobRunning: stepping on its own goroutine.
	JobRunning = service.JobRunning
	// JobDone: finished cleanly; journal debt cleared.
	JobDone = service.JobDone
	// JobFailed: ended with a fatal error.
	JobFailed = service.JobFailed
	// JobCancelled: cancelled by the operator; checkpoint retained.
	JobCancelled = service.JobCancelled
	// JobEvicted: removed by the tenant fault-budget breaker.
	JobEvicted = service.JobEvicted
	// JobInterrupted: the daemon died with the job in flight; the next
	// incarnation re-adopts it.
	JobInterrupted = service.JobInterrupted
)

// ErrJobNotFound reports a control-API lookup of an unknown job ID.
var ErrJobNotFound = service.ErrNotFound

// NewSupervisor opens (or re-opens) a daemon state directory, re-adopts
// every journaled in-flight job, and returns the supervisor ready for
// Start.
func NewSupervisor(cfg ServiceConfig) (*Supervisor, error) { return service.New(cfg) }

// DecodeJobSpec parses and validates one control-API job submission.
func DecodeJobSpec(data []byte) (JobSpec, error) { return service.DecodeJobSpec(data) }
