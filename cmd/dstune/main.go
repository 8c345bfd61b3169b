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
// heur2, model, two-phase, rl-bandit, rl-q — or any of them under a
// "warm:" prefix to force the warm-start wrapper's name explicitly.
//
// With -history FILE the process keeps a durable knowledge base of
// past runs: the tuner warm-starts from the best-known parameters for
// the (endpoint, size, load) regime and the run's best epoch is
// recorded back on completion:
//
//	dstune -tuner cs-tuner -testbed uchicago -cmp 16 -history runs.jsonl
//	dstune -tuner cs-tuner -testbed uchicago -cmp 16 -history runs.jsonl  # warm
//
// Long socket-mode runs survive interruption: -checkpoint FILE writes
// the run's durable state after every control epoch — a small head at
// FILE and the recorded epochs appended to FILE.log; keep the two
// together — SIGINT/SIGTERM drains the in-flight epoch and exits
// cleanly (a second signal aborts hard), -deadline bounds the whole
// run, and -resume FILE continues a checkpointed run mid-search with
// exact byte accounting (single-file checkpoints from earlier releases
// resume too, and are converted by the first epoch's write):
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
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"dstune"
)

// shutdown runs registered cleanup functions exactly once, in reverse
// registration order, whichever exit path fires first — the normal
// return, a fatal error, or the drained-interrupt path. log.Fatal
// calls os.Exit, which skips deferred calls, so every fatal exit after
// a durable sink is open must drain through this instead: otherwise
// the event-trace file and the history store lose their final,
// unsynced writes.
type shutdown struct {
	once sync.Once
	fns  []func()
}

// add registers a cleanup to run on shutdown.
func (s *shutdown) add(fn func()) { s.fns = append(s.fns, fn) }

// run executes the registered cleanups once, last-registered first.
func (s *shutdown) run() {
	s.once.Do(func() {
		for i := len(s.fns) - 1; i >= 0; i-- {
			s.fns[i]()
		}
	})
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dstune: ")

	mode := flag.String("mode", "sim", "sim or socket")
	fleetPath := flag.String("fleet", "", "drive many tuned sessions from one scheduler: JSON spec file (see cmd/dstune/fleet.go)")
	name := flag.String("tuner", "nm-tuner", "default, cd-tuner, cs-tuner, nm-tuner, heur1, heur2, model, two-phase, rl-bandit, rl-q, warm:<tuner>")
	duration := flag.Float64("duration", 1800, "transfer budget in seconds (virtual in sim mode, wall-clock in socket mode)")
	epoch := flag.Float64("epoch", 0, "control epoch seconds (default 30 sim, 0.25 socket)")
	tolerance := flag.Float64("tolerance", 0, "significance threshold percent (default 5 sim, 30 socket)")
	two := flag.Bool("two", false, "tune parallelism as well as concurrency")
	np := flag.Int("np", 8, "fixed parallelism when not tuning it")
	maxNC := flag.Int("max-nc", 128, "concurrency upper bound")
	maxNP := flag.Int("max-np", 16, "parallelism upper bound")
	seed := flag.Uint64("seed", 1, "random seed")
	csvPath := flag.String("csv", "", "write the trace series to this CSV file")
	checkpointPath := flag.String("checkpoint", "", "write a checkpoint after every epoch: the head to this file, the recorded epochs to FILE.log")
	resumePath := flag.String("resume", "", "resume a checkpointed run from this file and its FILE.log (socket mode); earlier single-file checkpoints load too")
	deadline := flag.Duration("deadline", 0, "wall-clock deadline for the whole run; 0 = none")
	obsAddr := flag.String("obs-addr", "", "serve live introspection (/metrics, /status, /debug/vars, /debug/pprof) on this address, e.g. 127.0.0.1:9310")
	obsTrace := flag.String("obs-trace", "", "append every structured event to this file as JSON lines")
	historyPath := flag.String("history", "", "transfer-history store (JSONL): warm-start the tuner from past runs and record this run's best epoch")

	// Simulation-mode flags.
	testbed := flag.String("testbed", "uchicago", "uchicago or tacc")
	tfr := flag.Int("tfr", 0, "external transfer streams at the source")
	cmp := flag.Int("cmp", 0, "external compute jobs at the source")
	stepAt := flag.Float64("step-at", 0, "if > 0, switch external load at this time")
	tfr2 := flag.Int("tfr2", 0, "external transfer streams after -step-at")
	cmp2 := flag.Int("cmp2", 0, "external compute jobs after -step-at")

	// Socket-mode flags.
	addr := flag.String("addr", "127.0.0.1:7632", "gridftpd address (socket mode)")
	bytes := flag.Float64("bytes", 0, "bytes to transfer; 0 = unbounded (socket mode)")
	shapeRate := flag.Float64("shape-rate", 0, "shaper per-connection rate in bytes/s; 0 = unshaped")
	shapeQuad := flag.Float64("shape-quad", 0, "shaper contention coefficient")
	retries := flag.Int("retries", 0, "dial attempts per connection, transient failures retried with backoff; 0 = 3 (socket mode)")
	retryBackoff := flag.Duration("retry-backoff", 0, "initial retry backoff, doubling per retry; 0 = 50ms (socket mode)")
	minStreams := flag.Int("min-streams", 0, "minimum data connections to run a degraded epoch; 0 = 1 (socket mode)")
	sockBuf := flag.Int("sockbuf", 0, "kernel socket buffer bytes per data connection; 0 = OS default (socket mode)")
	cold := flag.Bool("cold", false, "disable the warm stripe pool: re-dial every data connection each epoch (socket mode)")
	maxTransient := flag.Int("max-transient", 0, "consecutive transient epoch failures tolerated before aborting; 0 = 3")
	datasetSpec := flag.String("dataset", "", "move a multi-file dataset over the framed data plane instead of -bytes, e.g. 10000x1MiB or lognormal:2000:8MiB:1.5 (socket mode; pass again when resuming)")
	pp := flag.Int("pp", 0, "fixed pipelining depth for -dataset transfers; 0 tunes it as a third dimension with -two, or fixes 4 without (socket mode)")
	sourceDir := flag.String("source", "", "read -dataset payload from real files under this directory (materialized if absent) instead of synthetic zeros, engaging the zero-copy sendfile pump where the platform has it")
	requestSink := flag.Bool("sink", false, "ask the server to persist the -dataset files at its configured -sink directory instead of discarding them (socket mode)")
	tcpInfo := flag.Bool("tcpinfo", false, "sample kernel TCP_INFO per stripe at epoch boundaries and surface it in the trace and events (socket mode, Linux)")

	// Disk-mode flags.
	files := flag.Int("files", 8000, "file count (disk mode)")
	fileSize := flag.Float64("file-size", 1<<20, "file size in bytes, or lognormal median with -lognormal (disk mode)")
	lognormal := flag.Bool("lognormal", false, "log-normal file sizes instead of uniform (disk mode)")
	diskRate := flag.Float64("disk-rate", dstune.DefaultDiskRate, "source storage bandwidth in bytes/s (disk mode)")
	fileOverhead := flag.Float64("file-overhead", dstune.DefaultFileOverhead, "per-file request latency in seconds (disk mode)")
	flag.Parse()

	var shut shutdown
	defer shut.run()
	fatal := func(v ...any) {
		shut.run()
		log.Fatal(v...)
	}

	observer, obsClose, err := newObserver(*obsAddr, *obsTrace)
	if err != nil {
		log.Fatal(err)
	}
	shut.add(obsClose)

	// The history store is the run's knowledge plane: consulted for a
	// warm start before tuning, extended with this run's best epoch
	// after it. A damaged file degrades (intact records load, damage is
	// reported); only an unopenable one is fatal.
	var histStore *dstune.HistoryStore
	if *historyPath != "" {
		store, herr := dstune.OpenHistory(*historyPath)
		if store == nil {
			fatal(herr)
		}
		if herr != nil {
			log.Printf("history: %v (continuing with the %d intact records)", herr, store.Len())
		}
		histStore = store
		shut.add(func() {
			if cerr := store.Close(); cerr != nil {
				log.Printf("history: close: %v", cerr)
			}
		})
	}

	if *fleetPath != "" {
		if err := runFleet(*fleetPath, observer, *checkpointPath, histStore); err != nil {
			fatal(err)
		}
		return
	}

	// A resumed run adopts the checkpoint's tuner and seed and rebuilds
	// the transfer from its recorded state; only socket-mode transfers
	// outlive the process that started them.
	var resume *dstune.Checkpoint
	if *resumePath != "" {
		if *mode != "socket" {
			fatal("-resume requires -mode socket: simulated transfers live and die with the process")
		}
		var err error
		resume, err = dstune.LoadCheckpoint(*resumePath)
		if err != nil {
			fatal(err)
		}
		*name = resume.Tuner
		*seed = resume.Seed
		if *checkpointPath == "" {
			*checkpointPath = *resumePath
		}
		log.Printf("resuming %s from %s: %d epochs, %.0f bytes acked, clock %.1fs",
			resume.Tuner, *resumePath, resume.Epochs, resume.Transfer.Acked, resume.Transfer.Clock)
	}

	var transfer dstune.Transferer
	disk := false
	volume := 0.0 // history size-class input; 0 = unbounded
	switch *mode {
	case "sim":
		if *epoch == 0 {
			*epoch = 30
		}
		transfer, err = simTransfer(*testbed, *name, *seed,
			dstune.Load{Tfr: *tfr, Cmp: *cmp}, *stepAt, dstune.Load{Tfr: *tfr2, Cmp: *cmp2}, nil, 0, 0)
	case "disk":
		if *epoch == 0 {
			*epoch = 30
		}
		disk = true
		var d dstune.Dataset
		if *lognormal {
			d = dstune.LogNormalDataset(*files, *fileSize, 1.5, *seed)
		} else {
			d = dstune.UniformDataset(*files, int64(*fileSize))
		}
		volume = float64(d.TotalBytes())
		fmt.Printf("dataset: %s\n", d)
		transfer, err = simTransfer(*testbed, *name, *seed,
			dstune.Load{Tfr: *tfr, Cmp: *cmp}, *stepAt, dstune.Load{Tfr: *tfr2, Cmp: *cmp2},
			&d, *diskRate, *fileOverhead)
	case "socket":
		if *epoch == 0 {
			*epoch = 0.25
		}
		if *tolerance == 0 {
			*tolerance = 30
		}
		volume = *bytes
		size := *bytes
		if size <= 0 {
			size = dstune.Unbounded
		}
		var shaper *dstune.Shaper
		if *shapeRate > 0 {
			shaper = &dstune.Shaper{Rate: *shapeRate, Quad: *shapeQuad}
		}
		ccfg := dstune.TransferClientConfig{
			Addr: *addr, Bytes: size, Shaper: shaper,
			Retry:       dstune.RetryConfig{Attempts: *retries, Backoff: *retryBackoff},
			MinStreams:  *minStreams,
			Seed:        *seed,
			SockBuf:     *sockBuf,
			ColdStart:   *cold,
			RequestSink: *requestSink,
			TCPInfo:     *tcpInfo,
			Obs:         observer.Session(*name),
		}
		if *datasetSpec != "" {
			if *bytes > 0 {
				fatal("-dataset derives the volume from the dataset; drop -bytes")
			}
			var ds dstune.Dataset
			ds, err = dstune.ParseDataset(*datasetSpec, *seed)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("dataset: %s\n", ds)
			ccfg.Dataset = ds
			ccfg.Bytes = 0 // derived from the dataset
			volume = float64(ds.TotalBytes())
			if *sourceDir != "" {
				if err := dstune.MaterializeDataset(*sourceDir, ds); err != nil {
					fatal(err)
				}
				ccfg.SourceDir = *sourceDir
			}
		} else if *sourceDir != "" {
			fatal("-source reads the files named by a manifest; it requires -dataset")
		}
		if resume != nil {
			if resume.Transfer.Total >= 0 {
				ccfg.Bytes = resume.Transfer.Total
			} else {
				ccfg.Bytes = dstune.Unbounded
			}
			ccfg.Token = resume.Transfer.Token
			ccfg.AckedBytes = resume.Transfer.Acked
			ccfg.ClockOffset = resume.Transfer.Clock
		}
		transfer, err = dstune.NewTransferClient(ccfg)
	default:
		err = fmt.Errorf("unknown mode %q", *mode)
	}
	if err != nil {
		fatal(err)
	}

	// Interrupt handling: the first SIGINT/SIGTERM drains — the
	// in-flight epoch finishes, the checkpoint is written, and Tune
	// returns cleanly; a second signal cancels the context, aborting
	// the epoch immediately. -deadline bounds the run the hard way.
	ctx := context.Background()
	var cancel context.CancelFunc
	if *deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, *deadline)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	drain := make(chan struct{})
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		log.Print("interrupt: draining the in-flight epoch (interrupt again to abort)")
		close(drain)
		<-sigCh
		log.Print("second interrupt: aborting")
		cancel()
	}()

	sess := observer.Session(*name)
	cfg := dstune.TunerConfig{
		Epoch:                *epoch,
		Tolerance:            *tolerance,
		Budget:               *duration,
		Seed:                 *seed,
		MaxTransientFailures: *maxTransient,
		Resume:               resume,
		Drain:                drain,
		Obs:                  sess,
	}
	if *checkpointPath != "" {
		cfg.Checkpoint = dstune.NewFileCheckpoint(*checkpointPath)
	}
	space := dstune.SearchSpace{
		Two: *two, Files: *datasetSpec != "", PP: *pp,
		NP: *np, MaxNC: *maxNC, MaxNP: *maxNP,
	}
	if disk {
		// The simulated disk-to-disk transfer always tunes [nc, np, pp].
		space.Two, space.Files, space.PP = true, true, 0
	}
	cfg = space.Apply(cfg)
	key := historyKey(*mode, *testbed, *addr, volume, *tfr, *cmp)
	strat, err := dstune.ResolveStrategy(*name, cfg, histStore, key)
	if err != nil {
		fatal(err)
	}

	trace, err := dstune.NewDriver(cfg).Run(ctx, strat, transfer)
	clean := err == nil
	switch {
	case err == nil:
	case errors.Is(err, dstune.ErrInterrupted),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		if *checkpointPath != "" {
			log.Printf("stopped (%v) after %d epochs; checkpoint in %s and %s.log — resume with -resume %s",
				err, len(trace.Results), *checkpointPath, *checkpointPath, *checkpointPath)
		} else {
			log.Printf("stopped (%v) after %d epochs", err, len(trace.Results))
		}
	default:
		fatal(err)
	}
	// A completed run extends the knowledge plane with its best epoch;
	// interrupted runs don't — their truth lives in the checkpoint.
	if histStore != nil && clean {
		if x, tp, ok := trace.BestEpoch(); ok {
			rec := dstune.HistoryRecord{Key: key, X: x, Throughput: tp, Tuner: trace.Tuner, Epochs: len(trace.Results)}
			if aerr := histStore.Add(rec); aerr != nil {
				log.Printf("history: record: %v", aerr)
			} else {
				sess.HistoryRecorded()
				log.Printf("history: recorded x=%v at %.1f MB/s under %s", x, tp/1e6, key)
			}
		}
	}
	printTrace(trace)
	if *csvPath != "" {
		if err := writeCSV(*csvPath, trace); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}
}

// historyKey derives the run's identity in the history store: the
// endpoint is the testbed name (sim and disk modes) or the server
// address (socket mode); the size class buckets the requested volume
// (unbounded runs share one class); the load class fingerprints the
// configured external load.
func historyKey(mode, testbed, addr string, volume float64, tfr, cmp int) dstune.HistoryKey {
	ep := testbed
	if mode == "socket" {
		ep = addr
	}
	return dstune.HistoryKey{
		Endpoint:  ep,
		SizeClass: dstune.HistorySizeClass(volume),
		LoadClass: dstune.HistoryLoadClass(tfr + cmp),
	}
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
			// Sync before Close: the trace must be durable, not just
			// handed to the page cache, before the process exits.
			if err := sink.Sync(); err != nil {
				log.Printf("obs-trace: sync: %v", err)
			}
			if err := sink.Close(); err != nil {
				log.Printf("obs-trace: close: %v", err)
			}
		}
	}, nil
}

// simTransfer builds a simulated transfer on the named testbed;
// files selects disk-to-disk mode.
func simTransfer(testbed, tuner string, seed uint64, l dstune.Load, stepAt float64, after dstune.Load, files *dstune.Dataset, diskRate, fileOverhead float64) (dstune.Transferer, error) {
	var tb dstune.Testbed
	switch testbed {
	case "uchicago":
		tb = dstune.ANLtoUChicago()
	case "tacc":
		tb = dstune.ANLtoTACC()
	default:
		return nil, fmt.Errorf("unknown testbed %q (want uchicago or tacc)", testbed)
	}
	fabric, _, err := tb.NewFabric(seed)
	if err != nil {
		return nil, err
	}
	sched := dstune.ConstantLoad(l)
	if stepAt > 0 {
		sched = dstune.StepLoad(stepAt, l, after)
	}
	fabric.SetLoad(sched, nil)
	policy := dstune.RestartEveryEpoch
	if tuner == "default" {
		policy = dstune.RestartOnChange
	}
	tc := dstune.TransferConfig{Name: tuner, Bytes: dstune.Unbounded, Policy: policy}
	if files != nil {
		tc.Bytes = 0
		tc.Files = *files
		tc.DiskRate = diskRate
		tc.FileOverhead = fileOverhead
	}
	return fabric.NewTransfer(tc)
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
