package tuner

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"dstune/internal/history"
	"dstune/internal/obs"
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

// warmEvents returns the detail of every WarmStart event o recorded.
func warmEvents(o *obs.Observer) []string {
	var out []string
	for _, ev := range o.Recorder().Events() {
		if ev.Type == obs.EventWarmStart {
			out = append(out, ev.Detail)
		}
	}
	return out
}

// TestWarmStartAdoptsPrediction: a store hit replaces the starting
// vector of the named strategy — which keeps its own name — with the
// prediction, clamped to the box, and ResolveStrategy returns it for the
// checkpoint to record; a miss, a record of another dimensionality and
// a session without a store start cold and return no start. Each
// consultation of a store is one WarmStart event.
func TestWarmStartAdoptsPrediction(t *testing.T) {
	twoD := history.NewMemStore()
	if err := twoD.Add(history.Record{Key: simKey(), X: []int{14, 4}, Throughput: 3e8, Tuner: "cs-tuner", Epochs: 12}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		store  *history.Store
		key    history.Key
		start  []int // what ResolveStrategy returns
		first  []int // the first proposal
		events []string
	}{
		{"hit", seededStore(t, []int{14}), simKey(), []int{14}, []int{14}, []string{"hit"}},
		{"miss", seededStore(t, []int{14}), history.Key{Endpoint: "elsewhere"}, nil, []int{2}, []string{"miss"}},
		{"clamped", seededStore(t, []int{99}), simKey(), []int{32}, []int{32}, []string{"hit"}},
		{"other dimensionality", twoD, simKey(), nil, []int{2}, []string{"miss"}},
		{"no store", nil, simKey(), nil, []int{2}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := obs.NewObserver(obs.ObserverConfig{})
			cfg := simCfg()
			cfg.Obs = o.Session("s")
			cfg.History, cfg.HistoryKey = tc.store, tc.key
			s, start, err := ResolveStrategy("cs-tuner", cfg)
			if err != nil {
				t.Fatal(err)
			}
			if s.Name() != "cs-tuner" {
				t.Fatalf("Name() = %q", s.Name())
			}
			if !reflect.DeepEqual(start, tc.start) {
				t.Fatalf("adopted start %v, want %v", start, tc.start)
			}
			if x, done := s.Propose(); done || !reflect.DeepEqual(x, tc.first) {
				t.Fatalf("first proposal = %v, done=%v; want %v", x, done, tc.first)
			}
			if got := warmEvents(o); !reflect.DeepEqual(got, tc.events) {
				t.Fatalf("WarmStart events %v, want %v", got, tc.events)
			}
		})
	}
}

// TestWarmResumeMatchesUninterrupted is the warm-path determinism
// property: a warm-started run interrupted mid-flight and resumed from
// its durable checkpoint reproduces the uninterrupted warm trace
// exactly — even when the history store has learned new (different)
// records in between, because the adopted start travels in the
// checkpoint beside the seed, never through a fresh lookup. The
// checkpoint is the algorithm's own ("cs-tuner"), and the replay that
// resumes it rebuilds the same strategy from the same start.
func TestWarmResumeMatchesUninterrupted(t *testing.T) {
	const seed = 11
	const interruptAfter = 3
	for _, tc := range []struct{ recorded, start []int }{
		{[]int{14}, []int{14}},
		{[]int{99}, []int{32}}, // clamped to the box
	} {
		t.Run(fmt.Sprint(tc.recorded), func(t *testing.T) {
			// Reference: one uninterrupted warm run to completion.
			ref := mustWarmRun(t, simCfg(), seed, seededStore(t, tc.recorded), nil, nil)
			if len(ref.Results) <= interruptAfter {
				t.Fatalf("reference run too short to interrupt: %d epochs", len(ref.Results))
			}
			if ref.Tuner != "cs-tuner" || !reflect.DeepEqual(ref.Results[0].X, tc.start) {
				t.Fatalf("reference is a %q trace starting at %v", ref.Tuner, ref.Results[0].X)
			}

			// Interrupted: identical world, drained after k epochs, every
			// checkpoint persisted through the durable file form.
			live := simTransfer(t, seed)
			fc := NewFileCheckpoint(filepath.Join(t.TempDir(), "run.checkpoint"))
			cfg := drainAfter(interruptAfter, fc)
			store := seededStore(t, tc.recorded)
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
			// resumed run must ignore it: the adopted start is checkpoint
			// state.
			if err := store.Add(history.Record{Key: simKey(), X: []int{31}, Throughput: 9e8, Tuner: "cs-tuner", Epochs: 2}); err != nil {
				t.Fatal(err)
			}

			ck, err := LoadCheckpoint(fc.Path())
			if err != nil {
				t.Fatal(err)
			}
			if ck.Tuner != "cs-tuner" || !reflect.DeepEqual(ck.Start, tc.start) {
				t.Fatalf("checkpoint is %q started at %v, want cs-tuner at %v", ck.Tuner, ck.Start, tc.start)
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
		})
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
