package tuner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"dstune/internal/obs"
	"dstune/internal/xfer"
)

// runStepped is Run written against the exported engine: the named
// strategy under a NewSessionRuntime stepped until it is done, the
// session mapped from the Config by the one mapping Run uses. o, when
// non-nil, observes the session under the strategy's name.
func runStepped(ctx context.Context, name string, cfg Config, o *obs.Observer, tr xfer.Transferer) (*Trace, error) {
	cfg.Obs = o.Session(name)
	s, start, err := ResolveStrategy(name, cfg)
	if err != nil {
		return nil, err
	}
	rt, err := NewSessionRuntime(cfg.Session(name, s, start, tr))
	if err != nil {
		return nil, err
	}
	for !rt.Done() {
		rt.Step(ctx)
	}
	return rt.Result().Traces[0], rt.Err()
}

// eventLines renders an observer's recorded events as JSONL.
func eventLines(t *testing.T, o *obs.Observer) []byte {
	t.Helper()
	var out []byte
	for _, ev := range o.Recorder().Events() {
		line, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, line...), '\n')
	}
	return out
}

// TestDriverMatchesSessionRuntime: Run is a wrapper around the engine
// SessionRuntime exposes, so the same strategy, seed and world must
// come out identical through both — the trace, the event stream, and
// the checkpoint file byte for byte. What can differ is only the
// wrapper's wiring (seed, start, session name, observation handle), and
// this is the test that covers it; the history case's header carries
// the start both recorded.
func TestDriverMatchesSessionRuntime(t *testing.T) {
	const seed = 11
	cases := []strategyCase{{"cs-tuner", true}}
	for _, name := range StrategyNames() {
		cases = append(cases, strategyCase{name: name})
	}
	for _, c := range cases {
		name := c.name
		t.Run(c.label(), func(t *testing.T) {
			type outcome struct {
				trace        *Trace
				events, file []byte
			}
			run := func(stepped bool) outcome {
				o := obs.NewObserver(obs.ObserverConfig{})
				fc := NewFileCheckpoint(filepath.Join(t.TempDir(), "run.ck"))
				cfg := simCfg()
				if c.warm {
					cfg = withStore(t, cfg, "hit")
				}
				cfg.Checkpoint = fc
				var out outcome
				var err error
				if stepped {
					out.trace, err = runStepped(context.Background(), name, cfg, o, simTransfer(t, seed))
				} else {
					cfg.Obs = o.Session(name)
					out.trace, err = Run(context.Background(), name, cfg, simTransfer(t, seed))
				}
				if err != nil {
					t.Fatal(err)
				}
				out.events = eventLines(t, o)
				out.file = mustRead(t, fc.Path())
				return out
			}
			viaRun, stepped := run(false), run(true)
			if len(viaRun.trace.Results) == 0 || !reflect.DeepEqual(viaRun.trace, stepped.trace) {
				t.Fatalf("traces differ:\n Run     %+v\n stepped %+v", viaRun.trace, stepped.trace)
			}
			if !bytes.Equal(viaRun.events, stepped.events) {
				t.Fatalf("event streams differ:\n Run:\n%s stepped:\n%s", viaRun.events, stepped.events)
			}
			if !bytes.Equal(viaRun.file, stepped.file) {
				t.Fatal("checkpoint files differ")
			}
			if header, _, _ := bytes.Cut(viaRun.file, []byte{'\n'}); bytes.Contains(header, []byte(`"start":[14]`)) != c.warm {
				t.Fatalf("checkpoint header records the wrong start: %s", header)
			}
		})
	}
}

// halfEpochCancel is a simulated transfer whose cancelOn-th Run ends
// halfway through the epoch with the context cancelled — what a real
// transferer does under a hard cancel, at a point a test can choose.
// The embedded Sim keeps the byte account, so its Snapshot is the truth
// the checkpoint is compared against.
type halfEpochCancel struct {
	*xfer.Sim
	runs, cancelOn int
	cancel         context.CancelFunc
}

func (c *halfEpochCancel) Run(ctx context.Context, p xfer.Params, epoch float64) (xfer.Report, error) {
	c.runs++
	if c.runs != c.cancelOn {
		return c.Sim.Run(ctx, p, epoch)
	}
	rep, err := c.Sim.Run(ctx, p, epoch/2)
	if err != nil {
		return rep, err
	}
	c.cancel()
	return rep, ctx.Err()
}

// TestRuntimeCancelMidEpochCheckpointsPartialEpoch: under the engine
// dstuned runs, a ctx cancelled mid-epoch must leave a checkpoint whose
// last record is the partial epoch, so that the recorded bytes add up
// to what the transfer acknowledged — the resumed job's byte account
// starts from the checkpoint.
func TestRuntimeCancelMidEpochCheckpointsPartialEpoch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &halfEpochCancel{Sim: simTransfer(t, 11), cancelOn: 4, cancel: cancel}
	defer tr.Stop()
	cfg := simCfg()
	fc := NewFileCheckpoint(filepath.Join(t.TempDir(), "job.ck"))
	cfg.Checkpoint = fc
	trace, err := runStepped(ctx, "cs-tuner", cfg, nil, tr)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("session ended with %v, want context.Canceled", err)
	}
	if len(trace.Results) != tr.cancelOn {
		t.Fatalf("trace holds %d epochs, want %d (three whole, one partial)", len(trace.Results), tr.cancelOn)
	}
	ck, err := LoadCheckpoint(fc.Path())
	if err != nil {
		t.Fatal(err)
	}
	if ck.Epochs != tr.cancelOn {
		t.Fatalf("checkpoint holds %d epochs, want %d", ck.Epochs, tr.cancelOn)
	}
	last := ck.Trace[ck.Epochs-1].Report
	if d := last.End - last.Start; d <= 0 || d >= cfg.Epoch {
		t.Fatalf("last record is not the partial epoch: %+v", last)
	}
	var recorded float64
	for _, rec := range ck.Trace {
		recorded += rec.Report.Bytes
	}
	acked := xfer.CaptureState(tr).Acked
	if acked <= 0 || math.Abs(recorded-acked) > 1e-9*acked || ck.Transfer.Acked != acked {
		t.Fatalf("checkpoint records %v bytes and an acked count of %v, the transfer acknowledged %v",
			recorded, ck.Transfer.Acked, acked)
	}
}

// TestRuntimeCancelBeforeStepConsumesNoProposal: a ctx already
// cancelled at the round boundary ends the session before the strategy
// is asked for a vector it would never get to observe.
func TestRuntimeCancelBeforeStepConsumesNoProposal(t *testing.T) {
	cfg := cfg1D(100)
	inner, err := NewStrategy("cs-tuner", cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &countingStrategy{Strategy: inner}
	f := newFake(peaked(10))
	rt, err := NewSessionRuntime(FleetConfig{Epoch: cfg.Epoch},
		FleetSession{Strategy: s, Transfers: []xfer.Transferer{f}, Maps: []ParamMap{cfg.Map}})
	if err != nil {
		t.Fatal(err)
	}
	if info := rt.Step(context.Background()); info.Done {
		t.Fatalf("session ended after one epoch: %+v", info)
	}
	before, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	info := rt.Step(ctx)
	if !info.Done || !errors.Is(info.Err, context.Canceled) {
		t.Fatalf("Step under a cancelled ctx returned %+v, want Done with context.Canceled", info)
	}
	after, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if s.proposes != 1 || s.observes != 1 || f.runs != 1 || !bytes.Equal(before, after) {
		t.Fatalf("cancelled Step reached the strategy: %d proposals, %d observations, %d epochs run, state\n before %s\n after  %s",
			s.proposes, s.observes, f.runs, before, after)
	}
	if f.stopped {
		t.Fatal("cancelled session stopped its transfer")
	}
}

// TestRuntimeResumedSpentRunsNoEpoch: a session that is resumed with
// nothing left to do — its budget already used up, or its transfer
// already finished — ends cleanly in its first Step without asking the
// strategy for anything or running an epoch. The resume itself replays
// the recorded epochs, so proposals are counted from the built
// runtime on.
func TestRuntimeResumedSpentRunsNoEpoch(t *testing.T) {
	cfg := cfg1D(60)
	var last *Checkpoint
	cfg.Checkpoint = CheckpointFunc(func(ck *Checkpoint) error { last = ck; return nil })
	first := newFake(peaked(10))
	if _, err := runStepped(context.Background(), "cs-tuner", cfg, nil, first); err != nil {
		t.Fatal(err)
	}
	if last == nil || last.Epochs != 6 {
		t.Fatalf("first incarnation left %+v, want a 6-epoch checkpoint", last)
	}
	cases := map[string]*fake{
		"budget spent":      {now: first.now, remaining: first.remaining, g: first.g},
		"transfer finished": {g: first.g},
	}
	for name, f := range cases {
		t.Run(name, func(t *testing.T) {
			inner, err := NewStrategy("cs-tuner", cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := &countingStrategy{Strategy: inner}
			budget := cfg.Budget
			if f.remaining == 0 {
				budget = 0 // only the finished transfer ends this one
			}
			rt, err := NewSessionRuntime(FleetConfig{Epoch: cfg.Epoch, Budget: budget},
				FleetSession{Strategy: s, Transfers: []xfer.Transferer{f}, Maps: []ParamMap{cfg.Map}, Resume: last})
			if err != nil {
				t.Fatal(err)
			}
			replayed := s.proposes
			info := rt.Step(context.Background())
			if !info.Done || info.Err != nil {
				t.Fatalf("first Step returned %+v, want a clean end", info)
			}
			if rt.Epochs() != last.Epochs || f.runs != 0 || s.proposes != replayed {
				t.Fatalf("spent session ran on: %d epochs (resumed at %d), %d runs, %d proposals",
					rt.Epochs(), last.Epochs, f.runs, s.proposes-replayed)
			}
		})
	}
}
