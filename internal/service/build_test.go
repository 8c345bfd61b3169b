package service

import (
	"context"
	"math"
	"path/filepath"
	"testing"
	"time"

	"dstune/internal/history"
	"dstune/internal/tuner"
	"dstune/internal/xfer"
)

// simSpec is a runnable simulated spec under the named tuner.
func simSpec(name string) JobSpec {
	return JobSpec{Tuner: name, Budget: 60}.WithDefaults()
}

// TestBuildStrategyAllNames: every documented tuner name builds, under
// that name; an unknown one is an error at Validate and at Build.
func TestBuildStrategyAllNames(t *testing.T) {
	for _, name := range tuner.StrategyNames() {
		sess, err := Build(simSpec(name), "", Door{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sess.Transfer.Stop()
		if sess.Strategy.Name() != name || sess.ID != name {
			t.Fatalf("built %q as strategy %q, session %q", name, sess.Strategy.Name(), sess.ID)
		}
	}
	// The retired and withdrawn spellings are unknown names like any
	// other.
	for _, name := range []string{"bogus", "warm:cs-tuner", "static", "two-phase", "kernel-aware:cs-tuner"} {
		if err := simSpec(name).Validate(); err == nil {
			t.Fatalf("unknown tuner %q validated", name)
		}
		if _, err := Build(simSpec(name), "", Door{}); err == nil {
			t.Fatalf("unknown tuner %q built", name)
		}
	}
}

// TestBuildStrategyWarmStart: an open history store starts the named
// strategy — under its own name — from the store's prediction and hands
// the adopted start to the engine, whose checkpoints record it; a miss
// adopts nothing; and a resumed run never asks the store — its seed and
// start come from the checkpoint.
func TestBuildStrategyWarmStart(t *testing.T) {
	store := history.NewMemStore()
	sess, err := Build(simSpec("cs-tuner"), "", Door{History: store})
	if err != nil {
		t.Fatal(err)
	}
	sess.Transfer.Stop()
	if sess.Strategy.Name() != "cs-tuner" || sess.Start != nil {
		t.Fatalf("store miss built %q from %v, want cs-tuner from its own start", sess.Strategy.Name(), sess.Start)
	}
	if sess.Config.History != store || sess.Config.HistoryKey.Endpoint != "uchicago" {
		t.Fatalf("history wiring = %v under %+v", sess.Config.History, sess.Config.HistoryKey)
	}

	if err := store.Add(history.Record{Key: sess.Config.HistoryKey, X: []int{14}, Throughput: 3e8, Tuner: "cs-tuner", Epochs: 9}); err != nil {
		t.Fatal(err)
	}
	sess, err = Build(simSpec("cs-tuner"), "", Door{History: store})
	if err != nil {
		t.Fatal(err)
	}
	sess.Transfer.Stop()
	_, fs := sess.FleetSession()
	if x, _ := sess.Strategy.Propose(); sess.Strategy.Name() != "cs-tuner" || x[0] != 14 || len(fs.Start) != 1 || fs.Start[0] != 14 {
		t.Fatalf("store hit built %q proposing %v with session start %v, want cs-tuner at [14]", sess.Strategy.Name(), x, fs.Start)
	}

	ck := &tuner.Checkpoint{Tuner: "nm-tuner", Seed: 1, Start: []int{9}, Transfer: xfer.TransferState{Total: -1, Remaining: -1}}
	sess, err = Build(simSpec("cs-tuner"), "", Door{History: store, Resume: ck})
	if err != nil {
		t.Fatal(err)
	}
	sess.Transfer.Stop()
	if x, _ := sess.Strategy.Propose(); sess.Strategy.Name() != "nm-tuner" || x[0] != 9 {
		t.Fatalf("resumed run is %q at %v, want the checkpoint's nm-tuner at [9]", sess.Strategy.Name(), x)
	}
}

// TestHistoryKeyDerivation: one function keys a single run (endpoint)
// and one session among many (endpoint/id); a socket session keys on
// its own server address, not the testbed; and the size class is that
// of the volume the job moves — its dataset's bytes when it has one,
// which a socket dataset job (Bytes must be 0) used to lose.
func TestHistoryKeyDerivation(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec JobSpec
		id   string
		want history.Key
	}{
		{"single simulated run", JobSpec{Testbed: "uchicago", Addr: "", Cmp: 16}, "",
			history.Key{Endpoint: "uchicago", SizeClass: -1, LoadClass: history.LoadClass(16)}},
		{"single socket run", JobSpec{Testbed: "uchicago", Addr: "127.0.0.1:7632", Bytes: 5e9}, "",
			history.Key{Endpoint: "127.0.0.1:7632", SizeClass: history.SizeClass(5e9)}},
		{"socket session among many", JobSpec{Testbed: "tacc", Addr: "127.0.0.1:7632", Bytes: 5e9, Tfr: 4}, "bulk-2",
			history.Key{Endpoint: "127.0.0.1:7632/bulk-2", SizeClass: history.SizeClass(5e9), LoadClass: history.LoadClass(4)}},
		{"simulated session among many", JobSpec{Testbed: "tacc"}, "bg",
			history.Key{Endpoint: "tacc/bg", SizeClass: -1}},
		{"bounded simulated session", JobSpec{Testbed: "tacc", Bytes: 5e9}, "bg",
			history.Key{Endpoint: "tacc/bg", SizeClass: history.SizeClass(5e9)}},
		{"socket dataset job", JobSpec{Addr: "127.0.0.1:7632", Dataset: "64x1MiB"}, "files",
			history.Key{Endpoint: "127.0.0.1:7632/files", SizeClass: history.SizeClass(64 << 20)}},
		{"simulated dataset run", JobSpec{Testbed: "uchicago", Dataset: "64x1MiB"}, "",
			history.Key{Endpoint: "uchicago", SizeClass: history.SizeClass(64 << 20)}},
	} {
		spec := tc.spec.WithDefaults()
		// Through Build, with a factory so a socket spec dials nothing.
		sess, err := Build(spec, tc.id, Door{NewTransfer: memFactory(0, nil)})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := sess.Config.HistoryKey; got != tc.want {
			t.Errorf("%s: key = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestBuildUnknownTestbed: a testbed nobody knows is an error at every
// step that names one, never a silent uchicago.
func TestBuildUnknownTestbed(t *testing.T) {
	spec := simSpec("default")
	spec.Testbed = "mars"
	if err := spec.Validate(); err == nil {
		t.Fatal("unknown testbed validated")
	}
	if _, err := NewFabric(spec); err == nil {
		t.Fatal("unknown testbed got a fabric")
	}
	if _, err := Build(spec, "", Door{}); err == nil {
		t.Fatal("unknown testbed built")
	}
}

// TestBuildSimDataset: a simulated spec with a dataset is the
// disk-to-disk model — bounded by the dataset and tuned in the
// dimensions Two and PP pick, as at every other door.
func TestBuildSimDataset(t *testing.T) {
	spec := simSpec("nm-tuner")
	spec.Dataset = "4x1MiB"
	for _, tc := range []struct {
		two  bool
		pp   int
		dims int
	}{{false, 0, 1}, {true, 4, 2}, {true, 0, 3}} {
		spec.Two, spec.PP = tc.two, tc.pp
		sess, err := Build(spec, "", Door{})
		if err != nil {
			t.Fatal(err)
		}
		if got := sess.Transfer.Remaining(); got != 4<<20 {
			t.Fatalf("Remaining = %v, want the dataset's 4 MiB", got)
		}
		sess.Transfer.Stop()
		if got := sess.Config.Box.Dim(); got != tc.dims {
			t.Fatalf("two=%v pp=%d tunes %d dimensions, want %d", tc.two, tc.pp, got, tc.dims)
		}
	}
}

// TestDefaultIsGlobusDefaultAtEveryDoor: a `default` job under the
// Supervisor keeps its processes alive between epochs, as the same spec
// run as a one-session Fleet (the CLI's path) always has — the two mean
// throughputs are equal bit for bit, and the restart overhead is the
// first epoch's alone, not a tenth of every epoch.
func TestDefaultIsGlobusDefaultAtEveryDoor(t *testing.T) {
	spec, err := DecodeJobSpec([]byte(`{"tuner":"default","budget":300}`))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := Build(spec.WithDefaults(), "", Door{})
	if err != nil {
		t.Fatal(err)
	}
	results, err := tuner.NewFleet(sess.FleetSession()).Run(context.Background())
	if err == nil {
		err = results[0].Err
	}
	if err != nil {
		t.Fatal(err)
	}
	cli := results[0].Traces[0]

	sv, _ := startSupervisor(t, Config{})
	st, err := sv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "the default job", func() bool {
		js, _ := sv.Job(st.ID)
		return js.State == JobDone
	})
	ck, err := tuner.LoadCheckpoint(sv.checkpointPath(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	var daemon tuner.Trace
	for _, rec := range ck.Trace {
		daemon.Results = append(daemon.Results, tuner.EpochResult{X: rec.X, Report: rec.Report})
	}
	if got, want := daemon.MeanThroughput(), cli.MeanThroughput(); got != want {
		t.Fatalf("daemon default = %.1f MB/s, driver default = %.1f MB/s", got/1e6, want/1e6)
	}
	if over := 1 - daemon.MeanThroughput()/daemon.MeanBestCase(); over > 0.02 {
		t.Fatalf("default pays %.1f%% restart overhead: its processes are being restarted every epoch", 100*over)
	}
}

// TestDrainBeforeFirstEpochResumes: a job drained before its first
// epoch leaves a checkpoint of no record, its transfer state carried in
// the header. A simulated job resumes from it over its whole volume —
// not finishing at once with nothing moved, as a zero state would make
// it — and a socket job's client continues under the token and total
// the header recorded.
func TestDrainBeforeFirstEpochResumes(t *testing.T) {
	const volume = 3e9
	sv, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	j := &job{id: "early", spec: JobSpec{Bytes: volume, Epoch: 5}.WithDefaults(), state: JobRunning}
	rt, err := sv.buildRuntime(j)
	if err != nil {
		t.Fatal(err)
	}
	drained, cancel := context.WithCancel(context.Background())
	cancel()
	if info := rt.Step(drained); !info.Done || rt.Epochs() != 0 {
		t.Fatalf("a session stepped under a cancelled context: %+v after %d epochs, want done after none", info, rt.Epochs())
	}
	ck, err := tuner.LoadCheckpoint(sv.checkpointPath(j.id))
	if err != nil || ck.Epochs != 0 || ck.Transfer.Total != volume || ck.Transfer.Remaining != volume {
		t.Fatalf("the drained job's checkpoint loads as %+v, %v; want no epoch and all %.0f bytes remaining", ck, err, volume)
	}
	if rt, err = sv.buildRuntime(j); err != nil {
		t.Fatal(err)
	}
	for !rt.Done() {
		rt.Step(context.Background())
	}
	if rt.Err() != nil || math.Abs(rt.Bytes()-volume) > 1 || rt.Epochs() == 0 {
		t.Fatalf("the resumed job moved %.0f bytes in %d epochs (%v), want %.0f", rt.Bytes(), rt.Epochs(), rt.Err(), volume)
	}

	fc := tuner.NewFileCheckpoint(filepath.Join(t.TempDir(), "socket.ck"))
	if err := fc.Save(&tuner.Checkpoint{Tuner: "cs-tuner", Transfer: xfer.TransferState{Total: volume, Remaining: volume, Token: "tok"}}); err != nil {
		t.Fatal(err)
	}
	fc.Close()
	if ck, err = tuner.LoadCheckpoint(fc.Path()); err != nil {
		t.Fatal(err)
	}
	ccfg, err := ClientConfig(nil, "socket", JobSpec{Addr: "127.0.0.1:1", Bytes: volume}.WithDefaults(), ck)
	if err != nil {
		t.Fatal(err)
	}
	if ccfg.Token != "tok" || ccfg.Bytes != volume || ccfg.AckedBytes != 0 {
		t.Fatalf("a socket job resumed from no epoch dials token %q for %.0f bytes, %.0f acked; want %q for %.0f, none acked",
			ccfg.Token, ccfg.Bytes, ccfg.AckedBytes, "tok", volume)
	}
}
