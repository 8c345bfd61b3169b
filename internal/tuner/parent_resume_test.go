package tuner

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dstune/internal/obs"
	"dstune/internal/xfer"
)

// resumedEventCases are the strategies whose resumed event traces
// testdata/golden/resumed_events.json pins, each with the event type
// the epochs before the resume point emitted from inside the strategy:
// an ε-retrigger for the searches, an RLAction per epoch for the
// learned strategy.
var resumedEventCases = []struct {
	name  string
	inner obs.EventType
}{
	{"cs-tuner", obs.EventRetriggerEpsilon},
	{"model", obs.EventRetriggerEpsilon},
	{"rl-bandit", obs.EventRLAction},
}

// resumedEventsAfter is where the pinned runs are drained and resumed:
// 64 of the 80 epochs the step-load world runs in a 400 s budget, past
// cs-tuner's first ε-retrigger (epoch 54).
const resumedEventsAfter = 64

// resumedEventsCfg is simCfg over the 400 s budget the pinned runs
// share.
func resumedEventsCfg() Config {
	cfg := simCfg()
	cfg.Budget = 400
	return cfg
}

// resumedEvents runs name on the step-load world, drains it after
// resumedEventsAfter epochs through a FileCheckpoint, resumes the
// checkpoint on the same transfer in a second incarnation observed by a
// fresh observer — as a restarted daemon would — and returns that
// incarnation's event trace.
func resumedEvents(t *testing.T, name string) []byte {
	t.Helper()
	live := simLoadedTransfer(t, 11)
	fc := NewFileCheckpoint(filepath.Join(t.TempDir(), "run.ck"))
	defer fc.Close()
	cfg := drainAfter(resumedEventsAfter, fc)
	cfg.Budget = resumedEventsCfg().Budget
	if _, err := Run(t.Context(), name, cfg, live); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("drained run returned %v, want ErrInterrupted", err)
	}
	ck, err := LoadCheckpoint(fc.Path())
	if err != nil {
		t.Fatal(err)
	}
	observer := obs.NewObserver(obs.ObserverConfig{})
	rcfg := resumedEventsCfg()
	rcfg.Resume = ck
	rcfg.Obs = observer.Session("e2e")
	rcfg.Checkpoint = CheckpointFunc(func(*Checkpoint) error { return nil })
	if _, err := Run(t.Context(), name, rcfg, live); err != nil {
		t.Fatal(err)
	}
	return eventLines(t, observer)
}

// TestResumedEventsMatchParent: a resumed incarnation reports only the
// epochs it runs. testdata/golden/resumed_events.json holds the event
// traces of resumed incarnations recorded on the commit before resume
// became a replay of the epoch log, which deserialized the strategy and
// so ran none of the recorded epochs through it; the replay here, muted,
// must emit the same trace byte for byte — no RetriggerEpsilon or
// RLAction re-emitted for an epoch the first incarnation already
// reported. Each case's uninterrupted run is checked to emit such an
// event before the resume point, so the replayed span holds one. The
// traces were regenerated by a throw-away generator when calm Steps took
// windows in closed form (DESIGN.md §4): the tuner code that wrote them
// was unchanged, the simulated world under it was not.
func TestResumedEventsMatchParent(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", "resumed_events.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, tc := range resumedEventCases {
		t.Run(tc.name, func(t *testing.T) {
			observer := obs.NewObserver(obs.ObserverConfig{})
			cfg := resumedEventsCfg()
			cfg.Obs = observer.Session("e2e")
			if _, err := Run(t.Context(), tc.name, cfg, simLoadedTransfer(t, 11)); err != nil {
				t.Fatal(err)
			}
			replayed := 0
			for _, ev := range observer.Recorder().Events() {
				if ev.Type == tc.inner && ev.Epoch < resumedEventsAfter {
					replayed++
				}
			}
			if replayed == 0 {
				t.Fatalf("the uninterrupted run emits no %s before epoch %d", tc.inner, resumedEventsAfter)
			}

			got := string(resumedEvents(t, tc.name))
			w, ok := want[tc.name]
			if !ok {
				t.Fatal("fixture has no trace for this strategy")
			}
			if got != w {
				gotLines, wantLines := splitLines([]byte(got)), splitLines([]byte(w))
				for i := range wantLines {
					if i >= len(gotLines) || gotLines[i] != wantLines[i] {
						t.Fatalf("resumed event trace diverged at event %d:\n got %s\nwant %s",
							i, lineOrNil(gotLines, i), lineOrNil(wantLines, i))
					}
				}
				t.Fatalf("resumed event trace has %d events, the parent's had %d", len(gotLines), len(wantLines))
			}
		})
	}
}

// stumbling is a simulated transfer whose failRun-th epoch (1-based)
// runs and then fails transiently, as a socket epoch does whose stripes
// all died; the engine records it as a zero-throughput transient epoch.
type stumbling struct {
	*xfer.Sim
	failRun, runs int
}

func (s *stumbling) Run(ctx context.Context, p xfer.Params, epoch float64) (xfer.Report, error) {
	rep, err := s.Sim.Run(ctx, p, epoch)
	s.runs++
	if err == nil && s.runs == s.failRun {
		return rep, xfer.Transient(errors.New("stumbled"))
	}
	return rep, err
}

// parentCheckpointEpochs is the length of the runs
// testdata/golden/parent_checkpoints.json holds: drained after this
// many epochs, the last of them a transient failure.
const parentCheckpointEpochs = 4

// stumblingTransfer is simTransfer(11) failing its last epoch before
// the drain.
func stumblingTransfer(t *testing.T) *stumbling {
	return &stumbling{Sim: simTransfer(t, 11), failRun: parentCheckpointEpochs}
}

// writeDrainedCheckpoint runs name on stumblingTransfer, drained after
// parentCheckpointEpochs epochs, and returns the file its
// FileCheckpoint left.
func writeDrainedCheckpoint(t *testing.T, name string) []byte {
	t.Helper()
	fc := NewFileCheckpoint(filepath.Join(t.TempDir(), "run.ck"))
	defer fc.Close()
	if _, err := Run(t.Context(), name, drainAfter(parentCheckpointEpochs, fc), stumblingTransfer(t)); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("drained run returned %v, want ErrInterrupted", err)
	}
	return mustRead(t, fc.Path())
}

// parentView returns the lines of a checkpoint file as a build whose
// records carried no transfer state would frame them: the header line,
// then each record's JSON with its "transfer" key, always the last,
// cut off. The fixtures of the parent commits are re-framed files of
// such records.
func parentView(t *testing.T, file []byte) []string {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(string(file), "\n"), "\n")
	for i := 1; i < len(lines); i++ {
		js, ok := unframe([]byte(lines[i]))
		if !ok {
			t.Fatalf("record %d fails its check: %s", i-1, lines[i])
		}
		lines[i] = string(js)
		if before, _, found := strings.Cut(lines[i], `,"transfer":`); found {
			lines[i] = before + "}"
		}
	}
	return lines
}

// replayTransfer returns a fresh simulated world advanced through the
// epochs ck recorded, so a run resumed from ck continues on it exactly
// where the interrupted one stopped.
func replayTransfer(t *testing.T, seed uint64, ck *Checkpoint) *xfer.Sim {
	t.Helper()
	tr := simTransfer(t, seed)
	cfg := simCfg()
	for _, rec := range ck.Trace {
		if _, err := tr.Run(context.Background(), cfg.Map(rec.X), cfg.Epoch); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// TestParentCheckpointResumes: testdata/golden/parent_checkpoints.json
// holds, for every cold strategy name, the checkpoint the commit before
// resume became a replay wrote for a run drained after
// parentCheckpointEpochs epochs, the last a tolerated transient
// failure — its epoch log re-framed as the records of one file, their
// JSON unchanged, and regenerated, as resumed_events.json was, when calm
// Steps took windows in closed form. Resumed from those records alone,
// each must recount the transient and continue to exactly the
// uninterrupted run's trace.
func TestParentCheckpointResumes(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", "parent_checkpoints.json"))
	if err != nil {
		t.Fatal(err)
	}
	var files map[string]string
	if err := json.Unmarshal(raw, &files); err != nil {
		t.Fatal(err)
	}
	for _, name := range strategyNames() {
		t.Run(name, func(t *testing.T) {
			file, ok := files[name]
			if !ok {
				t.Fatal("fixture has no checkpoint for this strategy")
			}
			path := filepath.Join(t.TempDir(), "run.ck")
			if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
				t.Fatal(err)
			}
			ck, err := LoadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			// This build writes the same file but for the transfer state
			// its records carry.
			got := writeDrainedCheckpoint(t, name)
			if !reflect.DeepEqual(parentView(t, got), parentView(t, []byte(file))) {
				t.Fatalf("this build's checkpoint differs from the parent's beyond its records' transfer state:\n %s\nthe parent wrote\n %s", got, file)
			}

			ref, err := Run(context.Background(), name, simCfg(), stumblingTransfer(t))
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			cfg := simCfg()
			cfg.Resume = ck
			s, start, err := ResolveStrategy(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rt, err := NewSessionRuntime(cfg.Session("", s, start, replayTransfer(t, 11, ck)))
			if err != nil {
				t.Fatal(err)
			}
			if rt.Transients() != 1 {
				t.Fatalf("resumed with %d consecutive transients, the head counted 1", rt.Transients())
			}
			for !rt.Done() {
				rt.Step(context.Background())
			}
			if rt.Err() != nil {
				t.Fatalf("resumed run: %v", rt.Err())
			}
			if got := rt.Result().Traces[0].Results; !reflect.DeepEqual(got, ref.Results) {
				t.Fatalf("resumed trace diverged from the uninterrupted run:\n got %+v\nwant %+v", got, ref.Results)
			}
		})
	}
}
