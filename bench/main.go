// Command bench is the repository's one benchmark: five workloads that
// between them put every layer of the stack under load, the end-to-end
// metrics a user of the system would see, and a traced run that splits
// the same work by layer. It measures every layer from outside — by
// timing calls into public functions and by decorating the interfaces
// the public API already accepts — so it changes no file but its own.
//
//	go run ./bench --workload NAME --seed N --seconds S --trace 0|1
//	    one run of one workload; the last line of standard output is
//	    the JSON object BENCHMARK.json's driver reads
//	go run ./bench -seed N [-out results.jsonl]
//	    all five workloads, untraced and then traced, each in a process
//	    of its own
//	go run ./bench -quick ...
//	    a twentieth of each workload, for smoke tests
//	go run ./bench -compare A.jsonl B.jsonl
//	    judge B against A with every metric's own bound
//
// README.md beside this file says what each workload is for, what each
// metric means on each workload, and how to read a trace file.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"dstune/internal/dataset"
	"dstune/internal/stats"
)

// baseSeconds is the run length the workload sizes are written for; a
// run of s seconds scales them by s/baseSeconds.
const baseSeconds = 10

// quickShare is the share of each workload a -quick run keeps.
const quickShare = 1.0 / 20

// setupRounds is how many times a run sets up before it measures;
// setup_s is the median.
const setupRounds = 3

// runCtx is one run's arguments and where its results go.
type runCtx struct {
	seed    uint64
	seconds float64
	// scale is seconds/baseSeconds (times quickShare under -quick):
	// every workload multiplies its job, epoch or file count by it.
	scale float64
	trace bool
	// quick marks a -quick run: one set-up round and the shortest
	// warm-ups, because nothing it measures is meant to be read.
	quick bool
	// p is the cap on data connections and submitters.
	p int
	// dir is this run's scratch directory, inside the working
	// directory; traceDir is where trace files go.
	dir      string
	traceDir string
	res      *result
}

// env is what a workload's set-up leaves behind for its timed pass.
type env struct {
	daemon *daemon
	sink   *sinkProc
	// files is the dataset files-loopback moves.
	files dataset.Dataset
	spec  string
}

// close tears the environment down: daemon first, so that its clients
// say goodbye to a gridftpd that is still there.
func (e *env) close() {
	if e == nil {
		return
	}
	if e.daemon != nil {
		e.daemon.stop()
	}
	if e.sink != nil {
		e.sink.stop()
	}
}

// workload is one named set of inputs.
type workload struct {
	name string
	// why is BENCHMARK.json's one-line reason for the workload.
	why string
	// op names the operation attempted/failed count.
	op    string
	setup func(rc *runCtx) (*env, error)
	run   func(rc *runCtx, e *env) error
}

// workloads are the five workloads, in the order the full suite runs
// them. The names are stable: later issues refer to them.
var workloads = []workload{
	{"sim-figures", "the tuned figure set through the facade: only the simulator (xfer.Fabric, netem, endpoint) works; daemon, sockets and checkpoint are bypassed",
		"tuned session", setupSimFigures, runSimFigures},
	{"daemon-churn", "thousands of twelve-epoch simulated jobs through POST /jobs: per-job cost (admission, journal, buildRuntime, obs registration) dominates, per-epoch cost is small",
		"job", setupDaemon, runChurn},
	{"daemon-long-session", "one simulated dstuned job of thousands of epochs: per-epoch engine and checkpoint cost dominates, per-job cost is nil",
		"epoch", setupDaemon, runLongSession},
	{"bulk-loopback", "one dstuned socket job streaming bulk bytes to a gridftpd child: the pump and the server drain do the work, per-byte cost dominates",
		"epoch", setupSocket, runBulk},
	{"files-loopback", "one dstuned dataset job of log-normal files to a gridftpd child: framed segments, OPEN/ACK pipelining, MANIFEST and FSTAT; per-file cost dominates",
		"file", setupFiles, runFiles},
}

// findWorkload returns the workload called name.
func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	if os.Getenv(roleEnv) == "gridftpd" {
		if err := roleGridftpd(); err != nil {
			fmt.Fprintln(os.Stderr, "bench: gridftpd child:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "run this one workload and print the driver's JSON line last; empty runs all five, untraced then traced")
	seed := flag.Uint64("seed", 1, "seed of every generated input: job seeds, dataset seed, RunConfig.Seed")
	seconds := flag.Float64("seconds", baseSeconds, "how long one run measures; workload sizes scale with it")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = untraced run reporting end-to-end metrics")
	quick := flag.Bool("quick", false, "run a twentieth of each workload (smoke test; numbers mean nothing)")
	out := flag.String("out", "", "append each run's result to this file as one JSON line (input of -compare)")
	traceDir := flag.String("trace-dir", "", "directory for trace files (default: the run's scratch directory, removed afterwards)")
	compare := flag.Bool("compare", false, "compare two result files: bench -compare A.jsonl B.jsonl")
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = compareFiles(os.Stdout, flag.Args())
	case *name == "":
		err = runSuite(*seed, *seconds, *quick, *out, *traceDir)
	default:
		os.Exit(runIsolated(func(dir string) error {
			return runOne(os.Stdout, *name, *seed, *seconds, *trace != 0, *quick, *out, *traceDir, dir)
		}))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runIsolated gives run a scratch directory inside the working
// directory — the benchmark reads and writes nothing outside its
// checkout — with a private tmpfs mounted over it where the kernel
// allows (see ramdir_linux.go), and returns the process's exit code.
func runIsolated(run func(dir string) error) int {
	report := func(err error) int {
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if dir := os.Getenv(ramEnv); dir != "" {
		// The re-executed copy, already in its own mount namespace.
		if err := mountRAMDir(dir); err != nil {
			return noRAMDirExit
		}
		return report(run(dir))
	}
	dir, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		return report(err)
	}
	defer os.RemoveAll(dir)
	if dir, err = filepath.Abs(dir); err != nil {
		return report(err)
	}
	if code, ok := runInRAMDir(dir); ok {
		return code
	}
	return report(run(dir))
}

// errIncorrect is returned when a run finished but an output check
// failed; the result has been printed.
var errIncorrect = errors.New("an output check failed")

// runOne runs one workload once in this process, keeping its state
// under dir, and prints its report, ending with the driver's JSON line.
func runOne(w0 io.Writer, name string, seed uint64, seconds float64, trace, quick bool, out, traceDir, dir string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if !(seconds > 0) || seconds > 120 {
		return fmt.Errorf("-seconds %v outside (0, 120]", seconds)
	}
	scale := seconds / baseSeconds
	if quick {
		scale *= quickShare
	}
	var err error
	if traceDir == "" {
		traceDir = dir
	} else if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	rc := &runCtx{seed: seed, seconds: seconds, scale: scale, trace: trace, quick: quick, p: parallelism(),
		dir: dir, traceDir: traceDir, res: newResult(name, seed, seconds, trace)}
	rc.res.Op = w.op
	rc.res.note("P=%d (min(nproc,4)); all traffic crosses the host loopback interface; state under %s (%s)",
		rc.p, dir, fsType(dir))

	// Set up several times; measure on the last.
	var e *env
	var setups []float64
	rounds := setupRounds
	if quick {
		rounds = 1
	}
	for i := 0; i < rounds; i++ {
		e.close()
		t0 := time.Now()
		e, err = w.setup(rc)
		if err != nil {
			return fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	sampler := startRSSSampler()
	err = w.run(rc, e)
	rss := sampler.finish()
	childRSS := 0.0
	if e.sink != nil {
		if st, serr := e.sink.stats(); serr == nil {
			childRSS = st.RSSMiB
		}
	}
	e.close()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	// The resident set's sustained peak: the level it stays under for
	// 99 % of the timed pass. The true high-water mark is set by which
	// garbage-collection cycle happens to overshoot and differs by half
	// between identical runs, so it is printed for information only.
	sustained := stats.Quantile(rss, 0.99) + childRSS
	rc.res.info("rss_hwm_MiB", "MiB", peakRSSMiB()+childRSS, 0)
	if trace {
		rc.res.info("setup_s", "s", median(setups), len(setups))
		rc.res.info("peak_rss_MiB", "MiB", sustained, len(rss))
	} else {
		rc.res.set("setup_s", median(setups), len(setups))
		rc.res.set("peak_rss_MiB", sustained, len(rss))
	}
	rc.res.finish()
	rc.res.print(w0)
	if out != "" {
		if err := rc.res.appendTo(out); err != nil {
			return err
		}
	}
	fmt.Fprintln(w0, rc.res.lastLine())
	if !rc.res.Correct {
		return errIncorrect
	}
	return nil
}

// runSuite runs every workload untraced and then traced, one process
// each so that no workload inherits another's heap or high-water mark.
func runSuite(seed uint64, seconds float64, quick bool, out, traceDir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for _, trace := range []int{0, 1} {
		for _, w := range workloads {
			args := []string{"-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
			if quick {
				args = append(args, "-quick")
			}
			if out != "" {
				args = append(args, "-out", out)
			}
			if traceDir != "" {
				args = append(args, "-trace-dir", traceDir)
			}
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (trace %d): %w", w.name, trace, err)
			}
		}
	}
	return nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
