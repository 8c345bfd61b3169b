package tuner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dstune/internal/directsearch"
	"dstune/internal/endpoint"
	"dstune/internal/netem"
	"dstune/internal/xfer"
)

// simTransfer builds a deterministic simulated world — a small 8-core
// source over one 10 Gb/s, 30 ms path — and registers one unbounded
// transfer on it.
func simTransfer(t *testing.T, seed uint64) *xfer.Sim {
	t.Helper()
	f, err := xfer.NewFabric(xfer.FabricConfig{
		Seed: seed,
		Source: endpoint.Config{
			Name:         "src",
			Cores:        8,
			CorePumpRate: 1.25e9,
			RestartBase:  0.5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddPath(netem.Config{
		Name:       "wan",
		Capacity:   1.25e9,
		BaseRTT:    0.03,
		RandomLoss: 1e-5,
		MaxCwnd:    8 << 20,
	}); err != nil {
		t.Fatal(err)
	}
	tr, err := f.NewTransfer(xfer.TransferConfig{Name: "t", Bytes: xfer.Unbounded})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// simCfg tunes nc in [1, 32] with np fixed at 4 over short simulated
// epochs.
func simCfg() Config {
	return Config{
		Epoch:  5,
		Box:    directsearch.MustBox([]int{1}, []int{32}),
		Start:  []int{2},
		Map:    MapNC(4),
		Budget: 60,
		Seed:   7,
	}
}

// drainAfter returns a config that persists every checkpoint through
// fc (when non-nil) and drains the run once k epochs are recorded.
func drainAfter(k int, fc *FileCheckpoint) Config {
	drain := make(chan struct{})
	drained := false
	cfg := simCfg()
	cfg.Drain = drain
	cfg.Checkpoint = CheckpointFunc(func(ck *Checkpoint) error {
		if fc != nil {
			if err := fc.Save(ck); err != nil {
				return err
			}
		}
		if ck.Epochs >= k && !drained {
			drained = true
			close(drain)
		}
		return nil
	})
	return cfg
}

// TestResumeMatchesUninterrupted is the checkpoint/resume property:
// for every tuner, interrupting a run after k epochs (graceful drain),
// checkpointing it through the durable file form, and resuming on the
// same live transfer must produce exactly the trace an uninterrupted
// run produces on an identical fresh world — same proposals, same
// reports, no restart-from-default. The "stepped" column drives both
// halves through a stepped SessionRuntime instead of Run: one engine,
// so interrupting and resuming it must give the same trace.
func TestResumeMatchesUninterrupted(t *testing.T) {
	const seed = 11
	const interruptAfter = 3
	for _, name := range goldenTuners {
		// Reference: one uninterrupted run to completion.
		ref, err := Run(context.Background(), name, simCfg(), simTransfer(t, seed))
		if err != nil {
			t.Fatalf("%s: reference run: %v", name, err)
		}
		if len(ref.Results) <= interruptAfter {
			t.Fatalf("%s: reference run too short to interrupt: %d epochs", name, len(ref.Results))
		}
		for _, from := range []string{"v3", "stepped"} {
			t.Run(name+"/"+from, func(t *testing.T) {
				// Interrupted: identical world, drained after k epochs.
				live := simTransfer(t, seed)
				tune := func(cfg Config) (*Trace, error) {
					if from == "stepped" {
						return runStepped(context.Background(), name, cfg, nil, live)
					}
					return Run(context.Background(), name, cfg, live)
				}
				fc := NewFileCheckpoint(filepath.Join(t.TempDir(), "run.checkpoint"))
				defer fc.Close()
				part, err := tune(drainAfter(interruptAfter, fc))
				if !errors.Is(err, ErrInterrupted) {
					t.Fatalf("drained run returned %v, want ErrInterrupted", err)
				}
				if !reflect.DeepEqual(part.Results, ref.Results[:interruptAfter]) {
					t.Fatalf("pre-interrupt trace diverged from reference:\n got %+v\nwant %+v",
						part.Results, ref.Results[:interruptAfter])
				}

				// Resume from the file on the same live transfer, writing
				// on to the same path.
				ck, err := LoadCheckpoint(fc.Path())
				if err != nil {
					t.Fatal(err)
				}
				if ck.Version != CheckpointVersion || ck.Epochs != interruptAfter || len(ck.Trace) != interruptAfter {
					t.Fatalf("checkpoint loads as version %d with %d epochs and %d records, want version %d with %d",
						ck.Version, ck.Epochs, len(ck.Trace), CheckpointVersion, interruptAfter)
				}
				rcfg := simCfg()
				rcfg.Resume = ck
				rcfg.Checkpoint = NewFileCheckpoint(fc.Path())
				resumed, err := tune(rcfg)
				if err != nil {
					t.Fatalf("resumed run: %v", err)
				}
				if len(resumed.Results) != len(ref.Results) {
					t.Fatalf("resumed run has %d epochs, reference has %d",
						len(resumed.Results), len(ref.Results))
				}
				for i := range ref.Results {
					if !reflect.DeepEqual(resumed.Results[i], ref.Results[i]) {
						t.Fatalf("epoch %d diverged after resume:\n got %+v\nwant %+v",
							i, resumed.Results[i], ref.Results[i])
					}
				}

				// What the resumed run left is one file holding the whole
				// trajectory.
				final, err := LoadCheckpoint(fc.Path())
				if err != nil {
					t.Fatal(err)
				}
				if final.Epochs != len(ref.Results) {
					t.Fatalf("final checkpoint holds %d epochs, the run recorded %d", final.Epochs, len(ref.Results))
				}
				for i, rec := range final.Trace {
					if !reflect.DeepEqual(rec.Report, ref.Results[i].Report) || !reflect.DeepEqual(rec.X, ref.Results[i].X) {
						t.Fatalf("final checkpoint record %d differs from the reference epoch", i)
					}
				}
			})
		}
	}
}

// TestResumeRejectsMismatchedCheckpoint covers the engine's resume
// validation: foreign tuner, unknown version, and a trace/epoch-count
// mismatch all fail before the transfer is touched. It hands a
// one-session Fleet its strategy directly, because Run would build the
// one the checkpoint names.
func TestResumeRejectsMismatchedCheckpoint(t *testing.T) {
	good := &Checkpoint{Version: CheckpointVersion, Tuner: "default", Seed: 1}
	cases := []struct {
		name string
		ck   Checkpoint
	}{
		{"foreign tuner", Checkpoint{Version: CheckpointVersion, Tuner: "cs-tuner"}},
		{"unknown version", Checkpoint{Version: CheckpointVersion + 1, Tuner: "default"}},
		{"epoch mismatch", Checkpoint{Version: CheckpointVersion, Tuner: "default", Epochs: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cfg1D(100)
			ck := tc.ck
			cfg.Resume = &ck
			f := newFake(peaked(10))
			if _, err := NewFleet(cfg.Session("", NewStaticStrategy(cfg), nil, f)).Run(context.Background()); err == nil {
				t.Fatal("bad checkpoint accepted")
			}
			if f.runs != 0 {
				t.Fatalf("transfer ran %d epochs under a rejected checkpoint", f.runs)
			}
		})
	}
	// Sanity: the good zero-epoch checkpoint is accepted.
	cfg := cfg1D(100)
	cfg.Resume = good
	results, err := NewFleet(cfg.Session("", NewStaticStrategy(cfg), nil, newFake(peaked(10)))).Run(context.Background())
	if err == nil {
		err = results[0].Err
	}
	if err != nil {
		t.Fatalf("valid empty checkpoint rejected: %v", err)
	}
}

// TestResumeDivergenceDetected: resuming with a changed configuration
// makes the tuner propose a different vector than the checkpoint
// recorded, which the replay every resume runs must refuse loudly
// rather than corrupt the trace.
func TestResumeDivergenceDetected(t *testing.T) {
	ck := &Checkpoint{
		Version: CheckpointVersion,
		Tuner:   "default",
		Epochs:  1,
		Trace: []EpochRecord{{
			X:      []int{5},
			Report: xfer.Report{Start: 0, End: 10, Bytes: 1e9, Throughput: 1e8},
		}},
	}
	cfg := cfg1D(100) // Start {2}: the static tuner proposes {2}, not {5}
	cfg.Resume = ck
	_, err := Run(context.Background(), "default", cfg, newFake(peaked(10)))
	if err == nil {
		t.Fatal("diverged resume did not fail")
	}
	if got := err.Error(); !containsAll(got, "diverged", "[2]", "[5]") {
		t.Fatalf("divergence error lacks detail: %q", got)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		found := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// TestDrainLeavesTransferRunning: a drain-interrupted run must return
// ErrInterrupted, write a final checkpoint, and leave the transfer
// alive for resumption (Stop would destroy the far end's byte
// account).
func TestDrainLeavesTransferRunning(t *testing.T) {
	f := newFake(peaked(10))
	drain := make(chan struct{})
	close(drain)
	var last *Checkpoint
	cfg := cfg1D(100)
	cfg.Drain = drain
	cfg.Checkpoint = CheckpointFunc(func(ck *Checkpoint) error { last = ck; return nil })
	tr, err := Run(context.Background(), "default", cfg, f)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if len(tr.Results) != 0 {
		t.Fatalf("pre-closed drain still ran %d epochs", len(tr.Results))
	}
	if f.stopped {
		t.Fatal("drained run stopped the transfer; resume is impossible")
	}
	if last == nil || last.Epochs != 0 || last.Tuner != "default" {
		t.Fatalf("final checkpoint missing or wrong: %+v", last)
	}
}

// cancelingFake wraps fake to cancel a context mid-epoch on a chosen
// run, returning the partial epoch with the context's error — the
// behaviour real transferers (Sim, gridftp.Client) exhibit under a
// hard cancel.
type cancelingFake struct {
	fake
	cancelOn int
	cancel   context.CancelFunc
}

func (c *cancelingFake) Run(ctx context.Context, p xfer.Params, epoch float64) (xfer.Report, error) {
	rep, err := c.fake.Run(ctx, p, epoch)
	if err == nil && c.fake.runs == c.cancelOn {
		c.cancel()
		// Model a half-finished epoch: time passed, fewer bytes moved.
		rep.End = rep.Start + epoch/2
		rep.Bytes /= 2
		return rep, ctx.Err()
	}
	return rep, err
}

// TestCancelRecordsPartialEpoch: a ctx cancelled mid-epoch must stop
// tuning with the context's error, record the partial epoch it got,
// checkpoint it, and preserve the transfer.
func TestCancelRecordsPartialEpoch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := &cancelingFake{fake: *newFake(peaked(10)), cancelOn: 3, cancel: cancel}
	var last *Checkpoint
	cfg := cfg1D(1000)
	cfg.Checkpoint = CheckpointFunc(func(ck *Checkpoint) error { last = ck; return nil })
	tr, err := Run(ctx, "default", cfg, f)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(tr.Results) != 3 {
		t.Fatalf("trace has %d epochs, want 3 (two full + one partial)", len(tr.Results))
	}
	if f.fake.stopped {
		t.Fatal("cancelled run stopped the transfer; resume is impossible")
	}
	if last == nil || last.Epochs != 3 {
		t.Fatalf("final checkpoint missing or wrong: %+v", last)
	}
	partial := last.Trace[2].Report
	if partial.End <= partial.Start || partial.End-partial.Start >= cfg.Epoch {
		t.Fatalf("partial epoch not recorded as partial: %+v", partial)
	}
}

// testCheckpoint builds an n-epoch checkpoint with distinguishable
// records, each carrying the transfer state testState gives after it.
func testCheckpoint(n int) *Checkpoint {
	ck := &Checkpoint{
		Version:  CheckpointVersion,
		Tuner:    "cs-tuner",
		Seed:     42,
		Epochs:   n,
		Transfer: testState(n),
		Trace:    make([]EpochRecord, n),
	}
	for i := range ck.Trace {
		start := 30 * float64(i)
		ck.Trace[i] = EpochRecord{
			X:         []int{1 + i%32},
			Report:    xfer.Report{Params: xfer.Params{NC: 1 + i%32, NP: 4}, Start: start, End: start + 30, Bytes: 3e9, Throughput: 1e8, BestCase: 1e8, Run: i + 1},
			Transient: i%7 == 3,
			Transfer:  testState(i + 1),
		}
	}
	return ck
}

// testState is the state of testCheckpoint's socket transfer after n
// epochs: a finite total, so it differs from the zero value in every
// field.
func testState(n int) xfer.TransferState {
	const total = 1e15
	return xfer.TransferState{Total: total, Acked: 3e9 * float64(n), Remaining: total - 3e9*float64(n), Clock: 30 * float64(n), Token: "tok"}
}

// prefix returns the first n epochs of ck as a checkpoint of their own.
func prefix(ck *Checkpoint, n int) *Checkpoint {
	p := *ck
	p.Epochs, p.Trace, p.Transfer = n, ck.Trace[:n:n], testState(n)
	return &p
}

// TestFileCheckpointDurability: a run's Saves must leave exactly one
// file — complete, loadable, no temp litter — the first Save must
// replace whatever was at the path, every later Save must append to
// that same file rather than rename a new one over it, a checkpoint of
// no epoch must still carry the transfer's state, and LoadCheckpoint
// must reject garbage and version skew.
func TestFileCheckpointDurability(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.checkpoint")
	// Garbage at the path, as a crashed or foreign writer might leave.
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("garbage checkpoint loaded")
	}
	fc := NewFileCheckpoint(path)
	ck := testCheckpoint(3)
	// A drain before the first epoch saves none; then the trace grows
	// as a live run's does, and the last Save repeats (the engine's
	// checkpoint-on-interrupt carries no new record).
	var first os.FileInfo
	for i, n := range []int{0, 1, 2, 3, 3} {
		if err := fc.Save(prefix(ck, n)); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = fi
			got, err := LoadCheckpoint(path)
			if err != nil || got.Epochs != 0 || !reflect.DeepEqual(got.Transfer, testState(0)) {
				t.Fatalf("a checkpoint of no epoch loads as %+v, %v; want its transfer state %+v", got, err, testState(0))
			}
		} else if !os.SameFile(first, fi) {
			t.Fatalf("Save %d replaced the file; a later Save must append to it", i+1)
		}
	}
	if err := fc.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, ck)
	}
	head, err := LoadCheckpointHead(path)
	if err != nil {
		t.Fatal(err)
	}
	if head.Trace != nil || head.Epochs != 3 || !reflect.DeepEqual(head.Transfer, ck.Transfer) {
		t.Fatalf("head alone loads as %+v", head)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("checkpoint dir holds %d entries, want the one file: %v", len(entries), entries)
	}
	// A second writer on the same path (a resumed run) starts from a
	// whole rewrite.
	if err := NewFileCheckpoint(path).Save(prefix(ck, 2)); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadCheckpoint(path); err != nil || !reflect.DeepEqual(got, prefix(ck, 2)) {
		t.Fatalf("after a second writer: %+v, %v", got, err)
	}

	// Version skew: a file from a build this one does not know, and
	// the head of the head-and-log pair the release before wrote.
	skew := filepath.Join(dir, "skew.checkpoint")
	if err := os.WriteFile(skew, []byte(`{"version":5,"tuner":"cs-tuner"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{
		skew: "has version 5, this build reads 4",
		filepath.Join("testdata", "v3.checkpoint"): "has version 3, this build reads 4",
	} {
		for _, load := range []func(string) (*Checkpoint, error){LoadCheckpoint, LoadCheckpointHead} {
			if _, err := load(path); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("version-skewed checkpoint: got %v, want an error saying %q", err, want)
			}
		}
	}
}

// TestCheckpointCrashConsistency damages a 50-epoch checkpoint the ways
// a crash or a bad disk can, and holds the loader to its contract: what
// loads has Epochs == len(Trace) and is a prefix of the original;
// everything else is an error, never a panic, never a miscount. A crash
// can only cut an append short, so a file cut at any byte past its
// header loads the records it holds whole; a record that fails its CRC
// is a torn tail when it is the last line, and corruption anywhere
// else.
func TestCheckpointCrashConsistency(t *testing.T) {
	const n = 50
	full := testCheckpoint(n)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ck")
	fc := NewFileCheckpoint(path)
	defer fc.Close()
	for i := 1; i <= n; i++ {
		if err := fc.Save(prefix(full, i)); err != nil {
			t.Fatal(err)
		}
	}
	data := mustRead(t, path)
	// lines[i] is where line i starts: 0 is the header, k the k-th
	// record, n+1 the end of the file.
	lines := []int{0}
	for i, b := range data {
		if b == '\n' {
			lines = append(lines, i+1)
		}
	}
	if len(lines) != n+2 {
		t.Fatalf("the file holds %d lines, want a header and %d records", len(lines)-1, n)
	}

	type damage struct {
		name string
		file []byte
		want int // epochs a successful load must hold; -1: must fail
	}
	cases := []damage{{"intact", data, n}}
	for cut := 0; cut < len(data); cut++ {
		want := -1
		if cut >= lines[1] {
			want = bytes.Count(data[lines[1]:cut], []byte{'\n'})
		}
		cases = append(cases, damage{fmt.Sprintf("cut at %d", cut), data[:cut], want})
	}
	// One flipped byte: anywhere in a middle record it is corruption,
	// anywhere in the last it is a torn tail.
	flips := []struct {
		line, want int
	}{{n / 2, -1}, {n, n - 1}}
	for _, f := range flips {
		for at := lines[f.line]; at < lines[f.line+1]; at++ {
			flipped := append([]byte(nil), data...)
			flipped[at] ^= 1
			cases = append(cases, damage{fmt.Sprintf("record %d flipped at %d", f.line, at), flipped, f.want})
		}
	}
	work := filepath.Join(dir, "damaged.ck")
	load := func(tc damage) (*Checkpoint, error) {
		if err := os.WriteFile(work, tc.file, 0o644); err != nil {
			t.Fatal(err)
		}
		return LoadCheckpoint(work)
	}
	for _, tc := range cases {
		got, err := load(tc)
		switch {
		case err != nil && tc.want >= 0:
			t.Errorf("%s: load failed: %v", tc.name, err)
		case err == nil && tc.want < 0:
			t.Errorf("%s: loaded %d epochs, want an error", tc.name, got.Epochs)
		case err == nil:
			if got.Epochs != tc.want || len(got.Trace) != tc.want || (tc.want > 0 && !reflect.DeepEqual(got.Trace, full.Trace[:tc.want])) {
				t.Errorf("%s: loaded %d epochs with %d records, want the first %d of the original",
					tc.name, got.Epochs, len(got.Trace), tc.want)
			}
		}
	}
	// The header is written whole by a rename and carries no CRC: a
	// flipped byte in it fails the load or leaves every record intact.
	for at := 0; at < lines[1]; at++ {
		flipped := append([]byte(nil), data...)
		flipped[at] ^= 1
		if got, err := load(damage{file: flipped}); err == nil && !reflect.DeepEqual(got.Trace, full.Trace) {
			t.Errorf("header flipped at %d: loaded %d epochs, want an error or all %d", at, got.Epochs, n)
		}
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointSaveBytesAreFlat is the O(1) claim as a count, not a
// timing: what a cs-tuner Save appends at epoch 5000 is at most twice
// what it appends at epoch 10.
func TestCheckpointSaveBytesAreFlat(t *testing.T) {
	at := map[int]*Checkpoint{9: nil, 10: nil, 4999: nil, 5000: nil}
	cfg := cfg1D(5000 * 10)
	cfg.Checkpoint = CheckpointFunc(func(ck *Checkpoint) error {
		if _, ok := at[ck.Epochs]; ok {
			at[ck.Epochs] = ck
		}
		return nil
	})
	if _, err := Run(context.Background(), "cs-tuner", cfg, newFake(peaked(10))); err != nil {
		t.Fatal(err)
	}
	written := func(n int) int64 {
		if at[n-1] == nil || at[n] == nil {
			t.Fatalf("run did not reach epoch %d", n)
		}
		fc := NewFileCheckpoint(filepath.Join(t.TempDir(), "run.ck"))
		defer fc.Close()
		return saveBytes(t, fc, at[n-1], at[n])
	}
	small, large := written(10), written(5000)
	if small <= 0 || large > 2*small {
		t.Fatalf("Save wrote %d bytes at epoch 10 and %d at epoch 5000, want at most twice as many", small, large)
	}
}

// saveBytes primes fc with prev (the whole-rewrite first Save) and
// returns what the Save of next then writes: the file's growth.
func saveBytes(t *testing.T, fc *FileCheckpoint, prev, next *Checkpoint) int64 {
	t.Helper()
	if err := fc.Save(prev); err != nil {
		t.Fatal(err)
	}
	before := fileSize(t, fc.Path())
	if err := fc.Save(next); err != nil {
		t.Fatal(err)
	}
	return fileSize(t, fc.Path()) - before
}

func fileSize(t testing.TB, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// BenchmarkCheckpointSave times one steady-state FileCheckpoint.Save —
// append the new record and sync — with 10, 1000 and 10000 epochs
// already recorded. The first, whole-rewrite Save happens before the
// timer starts, so even a one-iteration run measures the steady state;
// B/save is the file's growth per Save. TestCheckpointSaveBytesAreFlat
// holds the flatness as a byte count; bench's
// checkpoint.save_ms_at_10/1000/2000 are its timing.
func BenchmarkCheckpointSave(b *testing.B) {
	for _, n := range []int{10, 1000, 10000} {
		b.Run(fmt.Sprintf("epochs=%d", n), func(b *testing.B) {
			full := testCheckpoint(n + b.N)
			fc := NewFileCheckpoint(filepath.Join(b.TempDir(), "run.ck"))
			defer fc.Close()
			if err := fc.Save(prefix(full, n)); err != nil {
				b.Fatal(err)
			}
			before := fileSize(b, fc.Path())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				if err := fc.Save(prefix(full, n+i)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(fileSize(b, fc.Path())-before)/float64(b.N), "B/save")
		})
	}
}

// TestCheckpointFailureIsFatal: a failing checkpoint writer must abort
// tuning — silently continuing would leave the operator with a stale
// resume point.
func TestCheckpointFailureIsFatal(t *testing.T) {
	cfg := cfg1D(1000)
	boom := errors.New("disk full")
	cfg.Checkpoint = CheckpointFunc(func(*Checkpoint) error { return boom })
	_, err := Run(context.Background(), "default", cfg, newFake(peaked(10)))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the checkpoint write error", err)
	}
}
