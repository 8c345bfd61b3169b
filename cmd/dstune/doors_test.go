package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"dstune"
	"dstune/internal/history"
	"dstune/internal/service"
)

// doorRun is what one front door made of a spec: the per-epoch vectors
// and throughputs, whether each epoch carried kernel TCP samples, and
// the key the run recorded under.
type doorRun struct {
	xs     [][]int
	tps    []float64
	kernel []bool
	key    history.Key
}

// doorRunOf reads a run back from its per-epoch records and the record
// it added under endpoint to its door's history file at hist — after
// the one seedStore put there, when pred is set — which must carry the
// spec's tuner name: a store-backed session is named for its algorithm.
func doorRunOf(t *testing.T, hist, endpoint, tuner string, pred []int, n int, epoch func(i int) ([]int, dstune.Report)) doorRun {
	t.Helper()
	var run doorRun
	for i := 0; i < n; i++ {
		x, rep := epoch(i)
		run.xs = append(run.xs, x)
		run.tps = append(run.tps, rep.Throughput)
		run.kernel = append(run.kernel, rep.Kernel != nil)
	}
	recs, want := recordsIn(t, hist, endpoint), 1
	if pred != nil {
		want = 2
	}
	if len(recs) != want {
		t.Fatalf("endpoint %s holds %d history records, want %d ending in the run's one", endpoint, len(recs), want)
	}
	last := recs[len(recs)-1]
	if last.Tuner != tuner {
		t.Fatalf("endpoint %s: the run recorded itself as %q, want %q", endpoint, last.Tuner, tuner)
	}
	run.key = last.Key
	return run
}

// openHistory opens a history store on a file of its own, which
// recordsIn reads back, and closes it when the test ends.
func openHistory(t *testing.T) (*dstune.HistoryStore, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "history.jsonl")
	store, err := dstune.OpenHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store, path
}

// recordsIn returns the records under endpoint in the history file at
// path, in the order they were added.
func recordsIn(t *testing.T, path, endpoint string) []history.Record {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []history.Record
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec history.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if rec.Key.Endpoint == endpoint {
			recs = append(recs, rec)
		}
	}
	return recs
}

// seedStore puts the prediction pred (none when nil) under endpoint,
// where a session keyed there finds it whatever its size and load
// classes: a lookup falls back to the endpoint's nearest record.
func seedStore(t *testing.T, store *dstune.HistoryStore, endpoint string, pred []int) {
	t.Helper()
	if pred == nil {
		return
	}
	if err := store.Add(history.Record{Key: history.Key{Endpoint: endpoint}, X: pred, Throughput: 1}); err != nil {
		t.Fatal(err)
	}
}

// doorRow is one strategy column of the table: a tuner name, run cold
// or — warm — from a prediction seeded into each door's history store.
type doorRow struct {
	tuner string
	warm  bool
}

// label is the row's subtest name: the spec's tuner, and for a warm row
// the store it starts from.
func (r doorRow) label() string {
	if r.warm {
		return r.tuner + "+history"
	}
	return r.tuner
}

// TestSameSpecSameSessionAtEveryDoor: one spec, handed to dstune as a
// flag line, to dstune -fleet as a one-session file, and to dstuned as
// a job, is one session — the same vectors, the same throughputs, epoch
// for epoch, recorded under history keys that differ only by the
// session-id suffix the two multi-session doors add. The warm rows seed
// each door's store with a prediction: every door starts there. The
// `default` rows hold since the doors agree that the static baseline
// keeps its processes alive; the dataset rows since a simulated -dataset is the
// disk-to-disk model at the CLI too. The socket row cannot compare
// wall-clock throughputs; it holds what a strategy that reads kernel
// samples is owed at every door: the samples, with no flag asking.
func TestSameSpecSameSessionAtEveryDoor(t *testing.T) {
	d := daemonDoor{dir: t.TempDir()}
	d.hist, d.histPath = openHistory(t)
	var err error
	if d.sv, err = service.New(service.Config{Dir: d.dir, History: d.hist}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.sv.Start(ctx)
	defer func() {
		cancel()
		d.sv.Wait()
	}()

	row := 0
	for _, testbed := range []string{"uchicago", "tacc"} {
		for _, tn := range []doorRow{{tuner: "default"}, {tuner: "cs-tuner"}, {tuner: "nm-tuner"}, {"cd-tuner", true}} {
			for _, two := range []bool{false, true} {
				for _, cmp := range []int{0, 16} {
					for _, files := range []string{"", "200x1MiB"} {
						row++
						spec := service.JobSpec{
							ID: fmt.Sprintf("row-%d", row), Tuner: tn.tuner, Testbed: testbed,
							Two: two, Cmp: cmp, Dataset: files, Budget: 180, Seed: 3,
						}
						var pred []int
						switch {
						case !tn.warm:
						case two && files != "":
							pred = []int{6, 4, 4} // nc, np, pp
						case two:
							pred = []int{6, 4}
						default:
							pred = []int{6}
						}
						t.Run(fmt.Sprintf("%s/%s/two=%v/cmp=%d/%s", testbed, tn.label(), two, cmp, files), func(t *testing.T) {
							sameAtEveryDoor(t, d, spec, pred)
						})
					}
				}
			}
		}
	}

	t.Run("socket/rl-bandit", func(t *testing.T) {
		if runtime.GOOS != "linux" {
			t.Skip("TCP_INFO sampling is Linux-only")
		}
		srv, err := dstune.ServeGridFTP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		spec := service.JobSpec{
			ID: "row-socket", Tuner: "rl-bandit", Addr: srv.Addr(),
			Epoch: 0.05, Tolerance: 30, Budget: 0.25, MaxNC: 4, Seed: 3,
		}
		cli, viaFleet, daemon := atEveryDoor(t, d, spec, nil)
		for door, run := range map[string]doorRun{"the CLI": cli, "-fleet": viaFleet, "dstuned": daemon} {
			if len(run.kernel) == 0 || slices.Contains(run.kernel, false) {
				t.Errorf("%s: epochs with kernel samples %v, want every one of at least one", door, run.kernel)
			}
		}
	})
}

// daemonDoor is one running Supervisor, its state directory and its
// history store and that store's file, shared by every row.
type daemonDoor struct {
	sv       *service.Supervisor
	dir      string
	hist     *dstune.HistoryStore
	histPath string
}

// atEveryDoor runs spec through the three doors, each over a history
// store that predicts pred (nil: an empty one), and returns what each
// made of it.
func atEveryDoor(t *testing.T, d daemonDoor, spec service.JobSpec, pred []int) (cli, viaFleet, daemon doorRun) {
	// (a) The flag line, through the CLI's own flag binding and session
	// construction.
	args := []string{
		"-tuner", spec.Tuner, "-cmp", strconv.Itoa(spec.Cmp),
		"-duration", fmt.Sprint(spec.Budget), "-seed", fmt.Sprint(spec.Seed),
	}
	endpoint := spec.Testbed
	if spec.Addr != "" {
		endpoint = spec.Addr
		args = append(args, "-mode", "socket", "-addr", spec.Addr, "-epoch", fmt.Sprint(spec.Epoch),
			"-tolerance", fmt.Sprint(spec.Tolerance), "-max-nc", strconv.Itoa(spec.MaxNC))
	} else {
		args = append(args, "-testbed", spec.Testbed)
	}
	if spec.Two {
		args = append(args, "-two")
	}
	if spec.Dataset != "" {
		args = append(args, "-dataset", spec.Dataset)
	}
	cliHist, cliPath := openHistory(t)
	seedStore(t, cliHist, endpoint, pred)
	_, trace := runFlags(t, cliHist, args...)
	if trace.Tuner != spec.Tuner {
		t.Fatalf("the CLI's trace is named %q, want %q", trace.Tuner, spec.Tuner)
	}
	cli = doorRunOf(t, cliPath, endpoint, spec.Tuner, pred, len(trace.Results), func(i int) ([]int, dstune.Report) {
		return trace.Results[i].X, trace.Results[i].Report
	})
	if len(cli.xs) == 0 {
		t.Fatal("the CLI ran no epochs")
	}

	// (b) A one-session fleet file: the spec is the file's shared
	// defaults, the session inherits all of it.
	fileSpec := spec
	fileSpec.ID = ""
	body, err := json.Marshal(struct {
		service.JobSpec
		Sessions []map[string]string `json:"sessions"`
	}{fileSpec, []map[string]string{{"name": "only"}}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fleet.json")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	fleetHist, fleetPath := openHistory(t)
	seedStore(t, fleetHist, endpoint+"/only", pred)
	fleet, err := buildFleet(path, nil, "", fleetHist)
	if err != nil {
		t.Fatal(err)
	}
	results, err := fleet.Run(context.Background())
	if err != nil || results[0].Err != nil {
		t.Fatalf("fleet: %v / %v", err, results[0].Err)
	}
	ft := results[0].Traces[0]
	viaFleet = doorRunOf(t, fleetPath, endpoint+"/only", spec.Tuner, pred, len(ft.Results), func(i int) ([]int, dstune.Report) {
		return ft.Results[i].X, ft.Results[i].Report
	})

	// (c) A dstuned job; its epochs are read back from its checkpoint,
	// which is the algorithm's own and records the start it adopted.
	seedStore(t, d.hist, endpoint+"/"+spec.ID, pred)
	st, err := d.sv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		js, err := d.sv.Job(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if js.State == service.JobDone {
			break
		}
		if js.State != service.JobQueued && js.State != service.JobRunning || time.Now().After(deadline) {
			t.Fatalf("job %s is %s: %s", st.ID, js.State, js.Error)
		}
		time.Sleep(time.Millisecond)
	}
	ck, err := dstune.LoadCheckpoint(filepath.Join(d.dir, "checkpoints", st.ID+".ck"))
	if err != nil {
		t.Fatal(err)
	}
	if ck.Tuner != spec.Tuner || !reflect.DeepEqual(ck.Start, pred) {
		t.Fatalf("dstuned's checkpoint is %q started at %v, want %q at %v", ck.Tuner, ck.Start, spec.Tuner, pred)
	}
	daemon = doorRunOf(t, d.histPath, endpoint+"/"+st.ID, spec.Tuner, pred, len(ck.Trace), func(i int) ([]int, dstune.Report) {
		return ck.Trace[i].X, ck.Trace[i].Report
	})
	return cli, viaFleet, daemon
}

// sameAtEveryDoor runs spec through the three doors and compares. With
// a prediction the CLI — and so every door — must open on it.
func sameAtEveryDoor(t *testing.T, d daemonDoor, spec service.JobSpec, pred []int) {
	cli, viaFleet, daemon := atEveryDoor(t, d, spec, pred)
	if pred != nil && !reflect.DeepEqual(cli.xs[0], pred) {
		t.Errorf("the CLI opened with %v, want %v", cli.xs[0], pred)
	}
	for _, other := range []struct {
		door   string
		run    doorRun
		suffix string
	}{{"-fleet", viaFleet, "/only"}, {"dstuned", daemon, "/" + spec.ID}} {
		if !reflect.DeepEqual(other.run.xs, cli.xs) {
			t.Errorf("%s proposed %v, the CLI %v", other.door, other.run.xs, cli.xs)
		}
		if !reflect.DeepEqual(other.run.tps, cli.tps) {
			t.Errorf("%s measured %v, the CLI %v", other.door, other.run.tps, cli.tps)
		}
		want := cli.key
		want.Endpoint += other.suffix
		if other.run.key != want {
			t.Errorf("%s recorded under %+v, want the CLI's key plus the id: %+v", other.door, other.run.key, want)
		}
	}
}
