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
	"testing"
	"time"

	"dstune"
	"dstune/internal/service"
)

// doorRun is what one front door made of a spec: the per-epoch vectors
// and throughputs, whether each epoch carried kernel TCP samples, and
// the key the run recorded under.
type doorRun struct {
	xs     [][]int
	tps    []float64
	kernel []bool
	key    dstune.HistoryKey
}

// doorRunOf reads a run back from its per-epoch records and the one key
// its door's history store now holds under endpoint.
func doorRunOf(t *testing.T, store *dstune.HistoryStore, endpoint string, n int, epoch func(i int) ([]int, dstune.Report)) doorRun {
	t.Helper()
	var run doorRun
	for i := 0; i < n; i++ {
		x, rep := epoch(i)
		run.xs = append(run.xs, x)
		run.tps = append(run.tps, rep.Throughput)
		run.kernel = append(run.kernel, rep.Kernel != nil)
	}
	recs := store.Records(endpoint)
	if len(recs) != 1 {
		t.Fatalf("endpoint %s holds %d history records, want the run's one", endpoint, len(recs))
	}
	run.key = recs[0].Key
	return run
}

// TestSameSpecSameSessionAtEveryDoor: one spec, handed to dstune as a
// flag line, to dstune -fleet as a one-session file, and to dstuned as
// a job, is one session — the same vectors, the same throughputs, epoch
// for epoch, recorded under history keys that differ only by the
// session-id suffix the two multi-session doors add. The `default` rows
// hold since the doors agree that the static baseline keeps its
// processes alive; the dataset rows since a simulated -dataset is the
// disk-to-disk model at the CLI too. The socket row cannot compare
// wall-clock throughputs; it holds what a strategy that reads kernel
// samples is owed at every door: the samples, with no flag asking.
func TestSameSpecSameSessionAtEveryDoor(t *testing.T) {
	d := daemonDoor{dir: t.TempDir(), hist: dstune.NewMemHistory()}
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
		for _, tn := range []string{"default", "cs-tuner", "nm-tuner", "two-phase", "warm:cd-tuner"} {
			for _, two := range []bool{false, true} {
				for _, cmp := range []int{0, 16} {
					for _, files := range []string{"", "200x1MiB"} {
						row++
						spec := service.JobSpec{
							ID: fmt.Sprintf("row-%d", row), Tuner: tn, Testbed: testbed,
							Two: two, Cmp: cmp, Dataset: files, Budget: 180, Seed: 3,
						}
						t.Run(fmt.Sprintf("%s/%s/two=%v/cmp=%d/%s", testbed, tn, two, cmp, files), func(t *testing.T) {
							sameAtEveryDoor(t, d, spec)
						})
					}
				}
			}
		}
	}

	t.Run("socket/kernel-aware:cs-tuner", func(t *testing.T) {
		if runtime.GOOS != "linux" {
			t.Skip("TCP_INFO sampling is Linux-only")
		}
		srv, err := dstune.ServeGridFTP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		spec := service.JobSpec{
			ID: "row-socket", Tuner: "kernel-aware:cs-tuner", Addr: srv.Addr(),
			Epoch: 0.05, Tolerance: 30, Budget: 0.25, MaxNC: 4, Seed: 3,
		}
		cli, viaFleet, daemon := atEveryDoor(t, d, spec)
		for door, run := range map[string]doorRun{"the CLI": cli, "-fleet": viaFleet, "dstuned": daemon} {
			if len(run.kernel) == 0 || slices.Contains(run.kernel, false) {
				t.Errorf("%s: epochs with kernel samples %v, want every one of at least one", door, run.kernel)
			}
		}
	})
}

// daemonDoor is one running Supervisor, its state directory and its
// history store, shared by every row.
type daemonDoor struct {
	sv   *service.Supervisor
	dir  string
	hist *dstune.HistoryStore
}

// atEveryDoor runs spec through the three doors and returns what each
// made of it.
func atEveryDoor(t *testing.T, d daemonDoor, spec service.JobSpec) (cli, viaFleet, daemon doorRun) {
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
	cliHist := dstune.NewMemHistory()
	_, trace := runFlags(t, cliHist, args...)
	cli = doorRunOf(t, cliHist, endpoint, len(trace.Results), func(i int) ([]int, dstune.Report) {
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
	fleetHist := dstune.NewMemHistory()
	fleet, err := buildFleet(path, nil, "", fleetHist)
	if err != nil {
		t.Fatal(err)
	}
	results, err := fleet.Run(context.Background())
	if err != nil || results[0].Err != nil {
		t.Fatalf("fleet: %v / %v", err, results[0].Err)
	}
	ft := results[0].Traces[0]
	viaFleet = doorRunOf(t, fleetHist, endpoint+"/only", len(ft.Results), func(i int) ([]int, dstune.Report) {
		return ft.Results[i].X, ft.Results[i].Report
	})

	// (c) A dstuned job; its epochs are read back from its checkpoint.
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
	daemon = doorRunOf(t, d.hist, endpoint+"/"+st.ID, len(ck.Trace), func(i int) ([]int, dstune.Report) {
		return ck.Trace[i].X, ck.Trace[i].Report
	})
	return cli, viaFleet, daemon
}

// sameAtEveryDoor runs spec through the three doors and compares.
func sameAtEveryDoor(t *testing.T, d daemonDoor, spec service.JobSpec) {
	cli, viaFleet, daemon := atEveryDoor(t, d, spec)
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
