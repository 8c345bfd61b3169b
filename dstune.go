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
//	tr, err := fabric.NewTransfer(dstune.TransferConfig{Bytes: dstune.Unbounded})
//	// handle err
//	cfg := dstune.TunerConfig{
//		Box:    dstune.MustBox([]int{1}, []int{128}),
//		Start:  []int{2},
//		Map:    dstune.MapNC(8),
//		Budget: 1800,
//	}
//	trace, err := dstune.Run(context.Background(), "nm-tuner", cfg, tr)
//	// trace.MeanThroughput(), trace.Param(0), ...
//
// Run is the one way to run a strategy by name. A custom Strategy runs
// the same one-transfer session as NewFleet(cfg.Session("", s, nil, t)):
// call cfg.Validate first, since Run validates and a fleet does not, and
// read the session's own failure from results[0].Err beside Run's error.
// NewFleet also runs many sessions — or several transfers under one
// strategy — side by side.
//
// Tuned runs are interruptible and durable: cancelling Run's context
// aborts the in-flight epoch promptly, TunerConfig.Drain stops cleanly
// at the next epoch boundary, TunerConfig.Checkpoint persists the run's
// state after every epoch, TunerConfig.Resume continues a checkpointed
// run mid-search (see Checkpoint), and TunerConfig.History warm-starts
// a run from what earlier ones recorded.
//
// Only what a command, an example (examples/ or example_test.go), the
// benchmark or README.md uses is re-exported here, plus the types a
// Strategy written outside this module must spell (Strategy, Report,
// Params, Transferer, Box); values of the other internal types arrive
// through these functions. A test of this module imports the internal
// packages instead, and TestRepoDocs fails on a re-export that only a
// test uses.
//
// The harnesses behind the paper's figures are TuneConcurrency,
// TuneBoth, CompareHeuristics and Simultaneous; the whole evaluation —
// every figure, claim, extension and ablation — is the table
// internal/experiment.Studies, which cmd/figures prints and whose
// paper-vs-measured scorecard EXPERIMENTS.md records.
package dstune

import (
	"context"
	"io"

	"dstune/internal/dataset"
	"dstune/internal/directsearch"
	"dstune/internal/endpoint"
	"dstune/internal/experiment"
	"dstune/internal/gridftp"
	"dstune/internal/history"
	"dstune/internal/load"
	"dstune/internal/obs"
	"dstune/internal/service"
	"dstune/internal/trace"
	"dstune/internal/tuner"
	"dstune/internal/xfer"
)

// Series is a named time series of (t, v) samples, as a Trace's
// Throughput, BestCase and Param methods produce.
type Series = trace.Series

// WriteSeriesCSV writes series in long format (series,t,v).
func WriteSeriesCSV(w io.Writer, series ...*Series) error {
	return trace.WriteCSV(w, series...)
}

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

// Simulated fabric.
type (
	// Fabric is a simulated testbed: one source endpoint, network
	// paths, external load, and any number of lockstep transfers.
	Fabric = xfer.Fabric
	// FabricConfig configures a Fabric.
	FabricConfig = xfer.FabricConfig
	// TransferConfig describes one transfer on a Fabric.
	TransferConfig = xfer.TransferConfig
	// HostConfig describes a source endpoint: cores, pump rate, idle
	// restart time and NIC rate. The scheduler's weights and overheads
	// are the model's constants.
	HostConfig = endpoint.Config
)

// NewFabric builds a simulation fabric; add paths with AddPath before
// creating transfers.
func NewFabric(cfg FabricConfig) (*Fabric, error) { return xfer.NewFabric(cfg) }

// Load is the external load at one instant: Tfr competing transfer
// streams and Cmp compute jobs at the source.
type Load = load.Load

// ConstantLoad returns a time-invariant schedule.
func ConstantLoad(l Load) load.Schedule { return load.Constant(l) }

// StepLoad switches from before to after at time at.
func StepLoad(at float64, before, after Load) load.Schedule { return load.Step(at, before, after) }

// Tuners.
type (
	// TunerConfig parameterizes a tuner (epoch, tolerance, bounds,
	// starting point, budget).
	TunerConfig = tuner.Config
	// ParamMap converts a tuned integer vector to transfer
	// parameters.
	ParamMap = tuner.ParamMap
	// Trace is the per-epoch record of one tuned transfer.
	Trace = tuner.Trace
)

// MapNC tunes concurrency only, with parallelism fixed at np.
func MapNC(np int) ParamMap { return tuner.MapNC(np) }

// MapNCNP tunes concurrency and parallelism simultaneously.
func MapNCNP() ParamMap { return tuner.MapNCNP() }

// Run tunes t with the named strategy — any name NewStrategy accepts —
// until the transfer completes or cfg.Budget is reached, and returns
// the per-epoch trace. With cfg.History set the strategy starts from
// the store's best-known vector for cfg.HistoryKey instead of cfg.Start
// (still under its own name) and the run records its own best epoch
// there; with cfg.Resume set the run continues the checkpointed one,
// under the checkpoint's strategy, seed and start.
func Run(ctx context.Context, name string, cfg TunerConfig, t Transferer) (*Trace, error) {
	return tuner.Run(ctx, name, cfg, t)
}

// Strategy state machines and the one epoch engine. Every tuner Run
// names is a Strategy (an explicit propose/observe state machine)
// stepped by the engine that owns the epoch loop, budget, transient
// tolerance, and checkpointing. Run (one named strategy, one transfer,
// run to completion) and Fleet (N sessions) are its front doors here,
// dstuned's SessionRuntime the third; a custom Strategy runs through
// Fleet, its one-transfer session built by TunerConfig.Session.
type (
	// Strategy is a tuner's decision kernel: Propose a vector, run an
	// epoch, Observe the report, repeat. Its state is a function of its
	// configuration and the reports it observed, so a checkpoint
	// resumes it by replaying the recorded epochs, verifying every
	// recorded proposal; Snapshot marshals its own state record, for
	// inspection.
	Strategy = tuner.Strategy
	// Fleet drives N (strategy, transfers) sessions concurrently, each
	// on its own goroutine, and returns their results in declaration
	// order.
	Fleet = tuner.Fleet
	// FleetConfig parameterizes a Fleet (epoch, budget, transient
	// tolerance).
	FleetConfig = tuner.FleetConfig
	// FleetSession is one (strategy, transfers) pairing of a Fleet. With
	// several Transfers, Dims and Maps it is a joint run: one strategy
	// over the concatenated vector, observing the summed aggregate
	// throughput (examples/joint_tuning).
	FleetSession = tuner.FleetSession
)

// NewStrategy builds the named strategy — any name StrategyUsage
// lists, a row of the strategy registry (STRATEGIES.md) — from cfg,
// starting at cfg.Start. It consults no history store; Run is what
// starts a strategy from TunerConfig.History's prediction.
func NewStrategy(name string, cfg TunerConfig) (Strategy, error) { return tuner.NewStrategy(name, cfg) }

// StrategyUsage is the list of accepted strategy names a usage string
// prints: "default, cd-tuner, …, rl-bandit".
func StrategyUsage() string { return tuner.StrategyUsage() }

// NewFleet returns a Fleet over the given sessions; its Run method
// drives them all concurrently until each ends.
func NewFleet(cfg FleetConfig, sessions ...FleetSession) *Fleet {
	return tuner.NewFleet(cfg, sessions...)
}

// Box is a bounded integer search domain; its Clamp method is the
// paper's fBnd. Direct search is usable standalone, for offline
// optimization.
type Box = directsearch.Box

// MustBox builds a Box from bounds, panicking on invalid input.
func MustBox(lo, hi []int) Box { return directsearch.MustBox(lo, hi) }

// MaximizeSearch drives a Searcher against an objective function.
func MaximizeSearch(s directsearch.Searcher, f func([]int) float64, maxEvals int) ([]int, float64) {
	return directsearch.Maximize(s, f, maxEvals)
}

// NewNelderMeadSearch returns a standalone Nelder–Mead search over box
// starting at start, with the customary coefficients.
func NewNelderMeadSearch(start []int, box Box) directsearch.Searcher {
	return directsearch.NewNelderMead(start, box, directsearch.NMConfig{})
}

// Real-socket transfers.
type (
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
func ServeGridFTP(addr string) (*gridftp.Server, error) { return gridftp.Serve(addr) }

// NewTransferClient returns a real-socket transfer client.
func NewTransferClient(cfg TransferClientConfig) (*TransferClient, error) {
	return gridftp.NewClient(cfg)
}

// RetryConfig governs a TransferClient's per-connection dial retries
// (attempts, exponential backoff, cap).
type RetryConfig = gridftp.RetryConfig

// ErrTransient marks transfer errors that may clear on their own
// (dial timeouts, resets, partial stripe failures); the tuners record
// such epochs as zero-throughput and keep tuning. Test with
// errors.Is(err, ErrTransient).
var ErrTransient = xfer.ErrTransient

// Checkpoint is the durable state of a tuned transfer, written after
// every control epoch; assign one to TunerConfig.Resume to continue the
// run mid-search.
type Checkpoint = tuner.Checkpoint

// NewFileCheckpoint returns a checkpoint writer for TunerConfig.Checkpoint
// targeting one append-only file at path: a header line, then one
// CRC-checked line per recorded epoch. The first save replaces the file
// whole; every later one appends only the new epoch, so a save costs
// the same however long the run.
func NewFileCheckpoint(path string) *tuner.FileCheckpoint { return tuner.NewFileCheckpoint(path) }

// LoadCheckpoint reads and validates the checkpoint file
// NewFileCheckpoint's writer left at path: a torn last line — an
// append a crash cut short — is dropped, a damaged line before it is
// refused, and so is a checkpoint of any other format version.
func LoadCheckpoint(path string) (*Checkpoint, error) { return tuner.LoadCheckpoint(path) }

// ErrInterrupted is returned by Run when the run was stopped
// gracefully by the TunerConfig.Drain channel: the in-flight epoch
// completed, the final checkpoint was written, and the transfer was
// left running so a later session can resume it.
var ErrInterrupted = tuner.ErrInterrupted

// Historical knowledge plane: an append-only store of past transfer
// outcomes keyed by endpoint identity, dataset size class, and
// external-load fingerprint, which any strategy can take its starting
// vector from (see DESIGN.md §3d).
type (
	// HistoryStore is a crash-safe JSONL store of best-known transfer
	// outcomes; query it with Lookup, extend it with Add.
	HistoryStore = history.Store
)

// OpenHistory opens (creating if absent) the transfer-history store at
// path. Damaged lines — a torn tail from a crash mid-append, or
// hand-edited garbage — are skipped and reported in the error; the
// store is unusable only when it is nil.
func OpenHistory(path string) (*HistoryStore, error) { return history.Open(path) }

// Observability: the observation plane documented in OBSERVABILITY.md.
type (
	// Observer is the top-level observation handle: a metrics
	// registry, a structured event recorder, and the per-session views
	// behind the /status endpoint. Assign Observer.Session(id) to
	// TunerConfig.Obs / TransferClientConfig.Obs, or the Observer
	// itself to FleetConfig.Obs.
	Observer = obs.Observer
	// ObserverConfig configures NewObserver: the event ring capacity
	// and an optional JSONL trace sink.
	ObserverConfig = obs.ObserverConfig
	// ObsEndpoint is a live introspection server started by
	// Observer.Serve, exposing /metrics, /status, and the standard
	// library's /debug/vars and /debug/pprof.
	ObsEndpoint = obs.Endpoint
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
	// TuningResult holds the traces of several tuners run under
	// identical conditions (Figures 5-10).
	TuningResult = experiment.TuningResult
)

// ANLtoUChicago returns the paper's 40 Gb/s short-RTT testbed.
func ANLtoUChicago() Testbed { return experiment.ANLtoUChicago() }

// ANLtoTACC returns the paper's 20 Gb/s, 33 ms testbed.
func ANLtoTACC() Testbed { return experiment.ANLtoTACC() }

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
func Simultaneous(tunerName string, rc RunConfig) (*experiment.SimultaneousResult, error) {
	return experiment.Simultaneous(tunerName, rc)
}

// UniformDataset returns n files of identical size.
func UniformDataset(n int, size int64) dataset.Dataset { return dataset.Uniform(n, size) }

// MaterializeDataset creates the dataset's files on disk under dir
// (sparse, size-exact), ready to serve as a TransferClient SourceDir.
// Existing files of the right size are left alone, so re-running
// against a warm directory is cheap.
func MaterializeDataset(dir string, d dataset.Dataset) error { return dataset.Materialize(dir, d) }

// MapNCNPPP tunes concurrency, parallelism, and pipelining; x is
// [nc, np, pp].
func MapNCNPPP() ParamMap { return tuner.MapNCNPPP() }

// FilesMoved sums the files completed across a trace.
func FilesMoved(tr *Trace) int { return experiment.FilesMoved(tr) }

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
)

// NewSupervisor opens (or re-opens) a daemon state directory, re-adopts
// every journaled in-flight job, and returns the supervisor ready for
// Start.
func NewSupervisor(cfg ServiceConfig) (*service.Supervisor, error) { return service.New(cfg) }
