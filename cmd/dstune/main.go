// Command dstune runs one tuned data transfer and prints the
// per-epoch trace: either on the simulated WAN testbeds or against a
// real gridftpd server over TCP sockets.
//
// Simulated (virtual time, deterministic):
//
//	dstune -tuner nm-tuner -testbed uchicago -duration 1800 -cmp 16
//	dstune -tuner cs-tuner -testbed tacc -two \
//	       -tfr 64 -cmp 16 -step-at 1000 -tfr2 16 -cmp2 16
//
// Real sockets (wall-clock time; start cmd/gridftpd first):
//
//	dstune -mode socket -addr 127.0.0.1:7632 -tuner cs-tuner \
//	       -epoch 0.25 -duration 15 -shape-rate 8e6 -shape-quad 0.028
//
// The tuner is one of: default, cd-tuner, cs-tuner, nm-tuner, heur1,
// heur2, model, rl-bandit.
//
// With -history FILE the process keeps a durable knowledge base of
// past runs: the named tuner starts from the best-known parameters for
// the (endpoint, size, load) regime instead of the Globus defaults — it
// is still that tuner, in the trace and in its checkpoint — and the
// run's best epoch is recorded back on completion:
//
//	dstune -tuner cs-tuner -testbed uchicago -cmp 16 -history runs.jsonl
//	dstune -tuner cs-tuner -testbed uchicago -cmp 16 -history runs.jsonl  # warm
//
// Long socket-mode runs survive interruption: -checkpoint FILE writes
// the run's durable state after every control epoch — one file, each
// recorded epoch appended to it — SIGINT/SIGTERM drains the in-flight
// epoch and exits cleanly (a second signal aborts hard), -deadline
// bounds the whole run, and -resume FILE continues a checkpointed run
// mid-search with exact byte accounting — given the tuning flags the
// run was started with, since the resume replays the recorded epochs
// and refuses ones they do not reproduce ("resume diverged at epoch
// k"):
//
//	dstune -mode socket -addr 127.0.0.1:7632 -tuner cs-tuner \
//	       -bytes 5e9 -checkpoint run.ck
//	^C
//	dstune -mode socket -addr 127.0.0.1:7632 -resume run.ck
//
// Many tuned sessions can run in one process under one scheduler
// (-fleet FILE); the JSON spec format is documented in fleet.go:
//
//	dstune -fleet fleet.json
//
// The flags fill in a service.JobSpec — the spec a dstuned job and a
// -fleet session are — and service.Build turns it into the session, so
// a spec means the same transfer, tuned the same way, at all three.
// With -dataset SPEC a socket run moves the files over the framed data
// plane and a simulated run is the disk-to-disk model. The flags that
// shape the local socket client (-shape-rate, -retries, -sockbuf,
// -source, ...) describe this host, not the job, and stay flags.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dstune"
	"dstune/internal/service"
)

// options is the command line: the job spec most flags bind straight
// onto — the same service.JobSpec a dstuned job or a -fleet session is —
// and the settings that stay with this process.
type options struct {
	spec service.JobSpec
	// mode and addr: -mode socket copies -addr into the spec.
	mode, addr string

	fleet, csv, checkpoint, resume string
	obsAddr, obsTrace, history     string
	deadline                       time.Duration

	// stepAt > 0 switches the simulated source's external load from the
	// spec's tfr/cmp to after at that time.
	stepAt float64
	after  dstune.Load

	// The socket client's host-local shape: applied to the client
	// configuration the spec derives, never carried in a spec.
	shapeRate, shapeQuad float64
	retry                dstune.RetryConfig
	minStreams, sockBuf  int
	cold, sink, tcpInfo  bool
	source               string
}

// bindFlags registers every dstune flag on fs and returns the options
// they fill.
func bindFlags(fs *flag.FlagSet) *options {
	o := &options{}
	s, def := &o.spec, service.JobSpec{}.WithDefaults()
	fs.StringVar(&o.mode, "mode", "sim", "sim or socket")
	fs.StringVar(&o.fleet, "fleet", "", "drive many tuned sessions from one scheduler: JSON file of shared job-spec defaults plus sessions (see cmd/dstune/fleet.go)")
	fs.StringVar(&s.Tuner, "tuner", "nm-tuner", dstune.StrategyUsage())
	fs.Float64Var(&s.Budget, "duration", 1800, "transfer budget in seconds (virtual in sim mode, wall-clock in socket mode)")
	fs.Float64Var(&s.Epoch, "epoch", 0, "control epoch seconds (default 30 sim, 0.25 socket)")
	fs.Float64Var(&s.Tolerance, "tolerance", 0, "significance threshold percent (default 5 sim, 30 socket)")
	fs.BoolVar(&s.Two, "two", false, "tune parallelism as well as concurrency")
	fs.IntVar(&s.NP, "np", def.NP, "fixed parallelism when not tuning it")
	fs.IntVar(&s.MaxNC, "max-nc", def.MaxNC, "concurrency upper bound")
	fs.IntVar(&s.MaxNP, "max-np", def.MaxNP, "parallelism upper bound")
	fs.Uint64Var(&s.Seed, "seed", def.Seed, "random seed")
	fs.StringVar(&o.csv, "csv", "", "write the trace series to this CSV file")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "write a checkpoint after every epoch to this file, appending each recorded epoch")
	fs.StringVar(&o.resume, "resume", "", "resume a checkpointed run from this file (socket mode)")
	fs.DurationVar(&o.deadline, "deadline", 0, "wall-clock deadline for the whole run; 0 = none")
	fs.StringVar(&o.obsAddr, "obs-addr", "", "serve live introspection (/metrics, /status, /debug/vars, /debug/pprof) on this address, e.g. 127.0.0.1:9310")
	fs.StringVar(&o.obsTrace, "obs-trace", "", "append every structured event to this file as JSON lines")
	fs.StringVar(&o.history, "history", "", "transfer-history store (JSONL): start the tuner from the best-known parameters of past runs and record this run's best epoch")
	fs.IntVar(&s.MaxTransient, "max-transient", 0, "consecutive transient epoch failures tolerated before aborting; 0 = 3")
	fs.Float64Var(&s.Bytes, "bytes", 0, "bytes to transfer; 0 = unbounded, ended by -duration")
	fs.StringVar(&s.Dataset, "dataset", "", "move a multi-file dataset instead of -bytes, e.g. 10000x1MiB or lognormal:2000:8MiB:1.5 (socket mode: the framed data plane, pass again when resuming; sim mode: the disk-to-disk model)")
	fs.IntVar(&s.PP, "pp", 0, "fixed pipelining depth for -dataset transfers; 0 tunes it as a third dimension with -two, or fixes 4 without")

	// Simulation-mode flags.
	fs.StringVar(&s.Testbed, "testbed", def.Testbed, "uchicago or tacc")
	fs.IntVar(&s.Tfr, "tfr", 0, "external transfer streams at the source")
	fs.IntVar(&s.Cmp, "cmp", 0, "external compute jobs at the source")
	fs.Float64Var(&o.stepAt, "step-at", 0, "if > 0, switch external load at this time")
	fs.IntVar(&o.after.Tfr, "tfr2", 0, "external transfer streams after -step-at")
	fs.IntVar(&o.after.Cmp, "cmp2", 0, "external compute jobs after -step-at")

	// Socket-mode flags.
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7632", "gridftpd address (socket mode)")
	fs.Float64Var(&o.shapeRate, "shape-rate", 0, "shaper per-connection rate in bytes/s; 0 = unshaped")
	fs.Float64Var(&o.shapeQuad, "shape-quad", 0, "shaper contention coefficient")
	fs.IntVar(&o.retry.Attempts, "retries", 0, "dial attempts per connection, transient failures retried with backoff; 0 = 3 (socket mode)")
	fs.DurationVar(&o.retry.Backoff, "retry-backoff", 0, "initial retry backoff, doubling per retry; 0 = 50ms (socket mode)")
	fs.IntVar(&o.minStreams, "min-streams", 0, "minimum data connections to run a degraded epoch; 0 = 1 (socket mode)")
	fs.IntVar(&o.sockBuf, "sockbuf", 0, "kernel socket buffer bytes per data connection; 0 = OS default (socket mode)")
	fs.BoolVar(&o.cold, "cold", false, "disable the warm stripe pool: re-dial every data connection each epoch (socket mode)")
	fs.StringVar(&o.source, "source", "", "read -dataset payload from real files under this directory (materialized if absent) instead of synthetic zeros, engaging the zero-copy sendfile pump where the platform has it (socket mode)")
	fs.BoolVar(&o.sink, "sink", false, "ask the server to persist the -dataset files at its configured -sink directory instead of discarding them (socket mode)")
	fs.BoolVar(&o.tcpInfo, "tcpinfo", false, "sample kernel TCP_INFO per stripe at epoch boundaries and surface it in the trace and events; always on under rl-bandit, which reads it (socket mode, Linux)")
	return o
}

// jobSpec returns the validated, defaulted job spec the flags describe.
// -mode is sugar over it: socket mode is a spec with an address, run by
// default on sub-second epochs with a tolerance that rides out loopback
// jitter.
func (o *options) jobSpec() (service.JobSpec, error) {
	spec := o.spec
	switch o.mode {
	case "sim":
	case "socket":
		spec.Addr = o.addr
		if spec.Epoch == 0 {
			spec.Epoch = 0.25
		}
		if spec.Tolerance == 0 {
			spec.Tolerance = 30
		}
	default:
		return spec, fmt.Errorf("unknown mode %q (want sim or socket)", o.mode)
	}
	if err := spec.Validate(); err != nil {
		return spec, err
	}
	if o.source != "" && spec.Dataset == "" {
		return spec, errors.New("-source reads the files named by a manifest; it requires -dataset")
	}
	if o.stepAt > 0 && (o.after.Tfr < 0 || o.after.Cmp < 0) {
		return spec, fmt.Errorf("-tfr2 %d / -cmp2 %d: external load cannot be negative", o.after.Tfr, o.after.Cmp)
	}
	return spec.WithDefaults(), nil
}

// session builds the run the flags describe through service.Build, the
// constructor dstuned and -fleet use: this door adds -resume's
// checkpoint, the socket client's local shape, and -step-at's load
// schedule on the fabric it hands over.
func (o *options) session(observer *dstune.Observer, hist *dstune.HistoryStore) (*service.Session, error) {
	door := service.Door{Obs: observer, History: hist}
	if o.resume != "" {
		// A resumed run adopts the checkpoint's tuner, seed and start and
		// rebuilds the transfer from its recorded state; only socket-mode
		// transfers outlive the process that started them.
		if o.mode != "socket" {
			return nil, errors.New("-resume requires -mode socket: simulated transfers live and die with the process")
		}
		ck, err := dstune.LoadCheckpoint(o.resume)
		if err != nil {
			return nil, err
		}
		door.Resume = ck
		o.spec.Tuner, o.spec.Seed = ck.Tuner, ck.Seed
		if o.checkpoint == "" {
			o.checkpoint = o.resume
		}
		log.Printf("resuming %s from %s: %d epochs, %.0f bytes acked, clock %.1fs",
			ck.Tuner, o.resume, ck.Epochs, ck.Transfer.Acked, ck.Transfer.Clock)
	}
	spec, err := o.jobSpec()
	if err != nil {
		return nil, err
	}
	if o.checkpoint != "" {
		door.Checkpoint = dstune.NewFileCheckpoint(o.checkpoint)
	}
	switch {
	case spec.Addr != "":
		door.NewTransfer = o.socketTransfer(observer)
	case o.stepAt > 0:
		if door.Fabric, err = service.NewFabric(spec); err != nil {
			return nil, err
		}
	}
	sess, err := service.Build(spec, "", door)
	if err != nil {
		return nil, err
	}
	if door.Fabric != nil {
		// After Build, which put the spec's constant load on the fabric.
		door.Fabric.SetLoad(dstune.StepLoad(o.stepAt, dstune.Load{Tfr: spec.Tfr, Cmp: spec.Cmp}, o.after), nil)
	}
	return sess, nil
}

// socketTransfer is the TransferFactory of a socket-mode run: the
// client configuration the spec (and a resumed checkpoint) derives,
// shaped by the flags that describe this host rather than the job.
func (o *options) socketTransfer(observer *dstune.Observer) service.TransferFactory {
	return func(id string, spec service.JobSpec, resume *dstune.Checkpoint) (dstune.Transferer, error) {
		ccfg, err := service.ClientConfig(observer, id, spec, resume)
		if err != nil {
			return nil, err
		}
		if o.shapeRate > 0 {
			ccfg.Shaper = &dstune.Shaper{Rate: o.shapeRate, Quad: o.shapeQuad}
		}
		ccfg.Retry = o.retry
		ccfg.MinStreams, ccfg.SockBuf = o.minStreams, o.sockBuf
		ccfg.ColdStart, ccfg.RequestSink = o.cold, o.sink
		// The spec's strategy may have asked for kernel samples already.
		ccfg.TCPInfo = ccfg.TCPInfo || o.tcpInfo
		if o.source != "" {
			if err := dstune.MaterializeDataset(o.source, ccfg.Dataset); err != nil {
				return nil, err
			}
			ccfg.SourceDir = o.source
		}
		return dstune.NewTransferClient(ccfg)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dstune: ")
	o := bindFlags(flag.CommandLine)
	flag.Parse()
	// log.Fatal exits without running deferred calls; run's have all run
	// — the trace file synced and closed, the history store closed — by
	// the time it returns.
	if err := run(o); err != nil {
		log.Fatal(err)
	}
}

// run is one dstune invocation after flag parsing: it opens the durable
// sinks the flags ask for, runs the fleet or the single session, prints
// the trace, and releases the sinks on every way out.
func run(o *options) error {
	observer, obsClose, err := newObserver(o.obsAddr, o.obsTrace)
	if err != nil {
		return err
	}
	defer obsClose()

	// The history store is the run's knowledge plane: consulted for a
	// warm start before tuning, extended with this run's best epoch
	// after it. A damaged file degrades (intact records load, damage is
	// reported); only an unopenable one is fatal.
	var histStore *dstune.HistoryStore
	if o.history != "" {
		store, herr := dstune.OpenHistory(o.history)
		if store == nil {
			return herr
		}
		if herr != nil {
			log.Printf("history: %v (continuing with the %d intact records)", herr, store.Len())
		}
		histStore = store
		defer func() {
			if cerr := store.Close(); cerr != nil {
				log.Printf("history: close: %v", cerr)
			}
		}()
	}

	if o.fleet != "" {
		return runFleet(o.fleet, observer, o.checkpoint, histStore)
	}

	sess, err := o.session(observer, histStore)
	if err != nil {
		return err
	}
	if sess.Dataset.Count() > 0 {
		fmt.Printf("dataset: %s\n", sess.Dataset)
	}

	// Interrupt handling: the first SIGINT/SIGTERM drains — the
	// in-flight epoch finishes, the checkpoint is written, and the
	// session ends with ErrInterrupted; a second signal cancels the
	// context, aborting the epoch immediately. -deadline bounds the run
	// the hard way.
	ctx := context.Background()
	var cancel context.CancelFunc
	if o.deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, o.deadline)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	drain := make(chan struct{})
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		<-sigCh
		log.Print("interrupt: draining the in-flight epoch (interrupt again to abort)")
		close(drain)
		<-sigCh
		log.Print("second interrupt: aborting")
		cancel()
	}()
	sess.Config.Drain = drain

	// A completed run extends the knowledge plane with its best epoch —
	// the engine records it, as it does for every fleet session and
	// daemon job; interrupted runs don't, their truth lives in the
	// checkpoint.
	recorded := -1
	if histStore != nil {
		recorded = histStore.Len()
	}
	trace, err := runSession(ctx, sess)
	switch {
	case err == nil:
	case errors.Is(err, dstune.ErrInterrupted),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		if o.checkpoint != "" {
			log.Printf("stopped (%v) after %d epochs; checkpoint in %s — resume with -resume %s",
				err, len(trace.Results), o.checkpoint, o.checkpoint)
		} else {
			log.Printf("stopped (%v) after %d epochs", err, len(trace.Results))
		}
	default:
		return err
	}
	if recorded >= 0 && histStore.Len() > recorded {
		x, tp, _ := trace.BestEpoch()
		log.Printf("history: recorded x=%v at %.1f MB/s under %s", x, tp/1e6, sess.Config.HistoryKey)
	}
	printTrace(trace)
	if o.csv != "" {
		if err := writeCSV(o.csv, trace); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", o.csv)
	}
	return nil
}

// runSession runs the one session of a single run to its end — a fleet
// of one, under the engine -fleet and dstuned run theirs on — and
// returns its trace and the error that ended it.
func runSession(ctx context.Context, sess *service.Session) (*dstune.Trace, error) {
	results, err := dstune.NewFleet(sess.FleetSession()).Run(ctx)
	if err != nil {
		return nil, err
	}
	return results[0].Traces[0], results[0].Err
}

// newObserver builds the run's observation plane from the -obs-addr
// and -obs-trace flags: nil (zero-cost no-op) when both are empty,
// otherwise an Observer optionally serving the introspection endpoint
// and mirroring events to a JSONL trace file. The returned close
// flushes the trace and stops the endpoint.
func newObserver(addr, tracePath string) (*dstune.Observer, func(), error) {
	if addr == "" && tracePath == "" {
		return nil, func() {}, nil
	}
	var sink *os.File
	if tracePath != "" {
		f, err := os.OpenFile(tracePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, err
		}
		sink = f
	}
	cfg := dstune.ObserverConfig{}
	if sink != nil {
		cfg.EventSink = sink
	}
	observer := dstune.NewObserver(cfg)
	var endpoint *dstune.ObsEndpoint
	if addr != "" {
		ep, err := observer.Serve(addr)
		if err != nil {
			if sink != nil {
				sink.Close()
			}
			return nil, nil, err
		}
		endpoint = ep
		log.Printf("observation plane on http://%s (/metrics /status /debug/vars /debug/pprof)", ep.Addr())
	}
	return observer, func() {
		if endpoint != nil {
			endpoint.Close()
		}
		if sink != nil {
			// The recorder stops writing at the sink's first error; say
			// so, or a full disk loses the trace's tail without a word.
			if err := observer.Recorder().Err(); err != nil {
				log.Printf("obs-trace: %v (no later event was written)", err)
			}
			// Sync before Close: a trace file must be durable, not just
			// handed to the page cache, before the process exits. A FIFO
			// or a terminal has nothing to sync (fsync fails EINVAL).
			if fi, err := sink.Stat(); err == nil && fi.Mode().IsRegular() {
				if err := sink.Sync(); err != nil {
					log.Printf("obs-trace: sync: %v", err)
				}
			}
			if err := sink.Close(); err != nil {
				log.Printf("obs-trace: close: %v", err)
			}
		}
	}, nil
}

// printTrace renders the per-epoch table and the summary lines.
func printTrace(tr *dstune.Trace) {
	if len(tr.Results) == 0 {
		fmt.Println("no epochs ran")
		return
	}
	dims := len(tr.Results[0].X)
	headers := []string{"nc", "nc   np", "nc   np   pp"}
	kernel := false
	for _, r := range tr.Results {
		if r.Report.Kernel != nil {
			kernel = true
			break
		}
	}
	fmt.Printf("epoch    t(s)    %s   MB/s    best-case", headers[min(dims, 3)-1])
	if kernel {
		fmt.Printf("    rtt(ms)  retx")
	}
	fmt.Println()
	for _, r := range tr.Results {
		fmt.Printf("%5d  %6.1f  ", r.Epoch, r.Report.End)
		for _, v := range r.X {
			fmt.Printf("%4d ", v)
		}
		fmt.Printf(" %8.1f  %8.1f", r.Report.Throughput/1e6, r.Report.BestCase/1e6)
		if k := r.Report.Kernel; k != nil {
			fmt.Printf("  %9.3f  %4d", k.MeanRTT()*1e3, k.RetransDelta)
		} else if kernel {
			fmt.Printf("  %9s  %4s", "-", "-")
		}
		fmt.Println()
	}
	obs, best := tr.MeanThroughput(), tr.MeanBestCase()
	fmt.Printf("\n%s: mean %.1f MB/s, best-case %.1f MB/s", tr.Tuner, obs/1e6, best/1e6)
	if best > 0 {
		fmt.Printf(", restart overhead %.1f%%", 100*(1-obs/best))
	}
	fmt.Printf(", final x=%v\n", tr.FinalX())
}

// writeCSV dumps the trace's series to path.
func writeCSV(path string, tr *dstune.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	series := []*dstune.Series{tr.Throughput(), tr.BestCase()}
	if x := tr.FinalX(); x != nil {
		for d := range x {
			series = append(series, tr.Param(d))
		}
	}
	return dstune.WriteSeriesCSV(f, series...)
}
