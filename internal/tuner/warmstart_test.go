package tuner

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"dstune/internal/history"
	"dstune/internal/xfer"
)

// simKey is the history key the warm-start tests share.
func simKey() history.Key {
	return history.Key{Endpoint: "sim", SizeClass: -1, LoadClass: 0}
}

// seededStore returns a memory store holding one best-known record for
// simKey with the given vector.
func seededStore(t *testing.T, x []int) *history.Store {
	t.Helper()
	s := history.NewMemStore()
	if err := s.Add(history.Record{Key: simKey(), X: x, Throughput: 3e8, Tuner: "cs-tuner", Epochs: 12}); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWarmStartAdoptsPrediction: a store hit makes the wrapped
// strategy's first proposal the predicted optimum; a miss leaves the
// cold start untouched; out-of-box predictions are clamped.
func TestWarmStartAdoptsPrediction(t *testing.T) {
	s, err := NewWarmStart("cs-tuner", simCfg(), seededStore(t, []int{14}), simKey())
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "warm:cs-tuner" {
		t.Fatalf("Name() = %q", s.Name())
	}
	if pred, ok := s.Warm(); !ok || !reflect.DeepEqual(pred, []int{14}) {
		t.Fatalf("Warm() = %v, %v; want [14], true", pred, ok)
	}
	if x, done := s.Propose(); done || !reflect.DeepEqual(x, []int{14}) {
		t.Fatalf("first proposal = %v, done=%v; want the prediction [14]", x, done)
	}

	// Miss: an endpoint the store has never seen cold-starts.
	cold, err := NewWarmStart("cs-tuner", simCfg(), seededStore(t, []int{14}), history.Key{Endpoint: "elsewhere"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cold.Warm(); ok {
		t.Fatal("miss reported as warm")
	}
	if x, _ := cold.Propose(); !reflect.DeepEqual(x, []int{2}) {
		t.Fatalf("cold first proposal = %v, want the configured start [2]", x)
	}

	// A prediction outside the box is clamped into it, never trusted raw.
	clamped, err := NewWarmStart("cs-tuner", simCfg(), seededStore(t, []int{99}), simKey())
	if err != nil {
		t.Fatal(err)
	}
	if pred, ok := clamped.Warm(); !ok || !reflect.DeepEqual(pred, []int{32}) {
		t.Fatalf("Warm() = %v, %v; want the clamped [32]", pred, ok)
	}

	// Warm-start nesting is rejected.
	if _, err := NewWarmStart("warm:cs-tuner", simCfg(), nil, history.Key{}); err == nil {
		t.Fatal("nested warm start accepted")
	}
}

// TestTwoPhaseCoarseCandidates: with a prediction the coarse list
// brackets it; cold it climbs from the start point; the fine phase
// begins only after every candidate has one observation.
func TestTwoPhaseCoarseCandidates(t *testing.T) {
	warm := NewTwoPhase(simCfg(), seededStore(t, []int{14}), simKey())
	if x, _ := warm.Propose(); !reflect.DeepEqual(x, []int{14}) {
		t.Fatalf("warm two-phase first proposal = %v, want the prediction [14]", x)
	}
	if want := [][]int{{14}, {28}, {7}}; !reflect.DeepEqual(warm.cands, want) {
		t.Fatalf("warm candidates = %v, want %v", warm.cands, want)
	}

	cold := NewTwoPhaseStrategy(simCfg())
	if want := [][]int{{2}, {4}, {8}}; !reflect.DeepEqual(cold.cands, want) {
		t.Fatalf("cold candidates = %v, want %v", cold.cands, want)
	}
}

// TestWarmResumeMatchesUninterrupted is the warm-path determinism
// property: a warm-started run interrupted mid-flight and resumed from
// its durable checkpoint reproduces the uninterrupted warm trace
// exactly — even when the history store has learned new (different)
// records in between, because the prediction travels in the checkpoint,
// never through a fresh lookup.
func TestWarmResumeMatchesUninterrupted(t *testing.T) {
	const seed = 11
	const interruptAfter = 3

	// Reference: one uninterrupted warm run to completion.
	ref := mustWarmRun(t, simCfg(), seed, seededStore(t, []int{14}), nil, nil)
	if len(ref.Results) <= interruptAfter {
		t.Fatalf("reference run too short to interrupt: %d epochs", len(ref.Results))
	}
	if ref.Tuner != "warm:cs-tuner" {
		t.Fatalf("trace tuner = %q", ref.Tuner)
	}

	// Interrupted: identical world, drained after k epochs, every
	// checkpoint persisted through the durable file form.
	live := simTransfer(t, seed)
	fc := NewFileCheckpoint(filepath.Join(t.TempDir(), "run.checkpoint"))
	drain := make(chan struct{})
	drained := false
	cfg := simCfg()
	cfg.Drain = drain
	cfg.Checkpoint = CheckpointFunc(func(ck *Checkpoint) error {
		if err := fc.Save(ck); err != nil {
			return err
		}
		if ck.Epochs >= interruptAfter && !drained {
			drained = true
			close(drain)
		}
		return nil
	})
	store := seededStore(t, []int{14})
	cfg.History, cfg.HistoryKey = store, simKey()
	part, err := Run(context.Background(), "cs-tuner", cfg, live)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("drained run returned %v, want ErrInterrupted", err)
	}
	if !reflect.DeepEqual(part.Results, ref.Results[:interruptAfter]) {
		t.Fatalf("pre-interrupt trace diverged from reference:\n got %+v\nwant %+v",
			part.Results, ref.Results[:interruptAfter])
	}

	// The store learns a new, better record before the resume. The
	// resumed run must ignore it: the adopted prediction is checkpoint
	// state.
	if err := store.Add(history.Record{Key: simKey(), X: []int{31}, Throughput: 9e8, Tuner: "cs-tuner", Epochs: 2}); err != nil {
		t.Fatal(err)
	}

	ck, err := LoadCheckpoint(fc.Path())
	if err != nil {
		t.Fatal(err)
	}
	if ck.Tuner != "warm:cs-tuner" {
		t.Fatalf("checkpoint tuner = %q, want warm:cs-tuner", ck.Tuner)
	}
	resumed := mustWarmRun(t, simCfg(), seed, store, ck, live)
	if len(resumed.Results) != len(ref.Results) {
		t.Fatalf("resumed run has %d epochs, reference has %d", len(resumed.Results), len(ref.Results))
	}
	for i := range ref.Results {
		if !reflect.DeepEqual(resumed.Results[i], ref.Results[i]) {
			t.Fatalf("epoch %d diverged after resume:\n got %+v\nwant %+v",
				i, resumed.Results[i], ref.Results[i])
		}
	}
}

// mustWarmRun runs the warm cs-tuner to completion on live (or a fresh
// seeded world when live is nil), resuming from ck when non-nil.
func mustWarmRun(t *testing.T, cfg Config, seed uint64, store *history.Store, ck *Checkpoint, live *xfer.Sim) *Trace {
	t.Helper()
	cfg.Resume = ck
	cfg.History, cfg.HistoryKey = store, simKey()
	if live == nil {
		live = simTransfer(t, seed)
	}
	tr, err := Run(context.Background(), "cs-tuner", cfg, live)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}
