package tuner

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dstune/internal/obs"
)

// TestGoldenEventTrace is the observation-plane determinism property:
// a Run session on a pinned simulated world, watched by an
// obs.Recorder, must emit exactly the event sequence captured in the
// golden fixture — same types, same order, same epochs, same virtual
// timestamps, same strategy deltas. Event.T is transfer-clock time and
// checkpoint write latency lands in metrics only, so the trace is
// bit-stable across machines.
//
// When DSTUNE_EVENT_TRACE is set, each trace is also written to
// $DSTUNE_EVENT_TRACE.<tuner>.jsonl (CI uploads them as artifacts from
// the race run).
func TestGoldenEventTrace(t *testing.T) {
	gc := goldenCases()[0] // the 1-D world, long enough for the search to settle
	cases := []struct {
		tuner string
		warm  bool
	}{
		{"cs-tuner", false},
		// The model tuner's hold phase retriggers the ε-monitor on this
		// world, so its fixture locks the RetriggerEpsilon event too.
		{"model", false},
		// The warm case runs cs-tuner over a preloaded memory store, so
		// its fixture locks the leading WarmStart hit event and the
		// prediction-first proposal. The label avoids ':' because it is
		// spliced into artifact and fixture filenames.
		{"warm-cs-tuner", true},
	}
	for _, tc := range cases {
		t.Run(tc.tuner, func(t *testing.T) {
			observer := obs.NewObserver(obs.ObserverConfig{})
			cfg := gc.cfg
			cfg.Obs = observer.Session("e2e")
			cfg.Checkpoint = CheckpointFunc(func(*Checkpoint) error { return nil })
			name := tc.tuner
			if tc.warm {
				name = "cs-tuner"
				cfg.History, cfg.HistoryKey = seededStore(t, []int{14}), simKey()
			}
			if _, err := Run(t.Context(), name, cfg, simTransfer(t, gc.seed)); err != nil {
				t.Fatal(err)
			}

			events := observer.Recorder().Events()
			if len(events) == 0 {
				t.Fatal("no events recorded")
			}
			checkEventOrdering(t, events)

			var got []byte
			for _, ev := range events {
				line, err := json.Marshal(ev)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, line...)
				got = append(got, '\n')
			}

			if path := os.Getenv("DSTUNE_EVENT_TRACE"); path != "" {
				if err := os.WriteFile(path+"."+tc.tuner+".jsonl", got, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			path := filepath.Join("testdata", "golden", "events_"+tc.tuner+".jsonl")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden fixture missing (run with -update-golden): %v", err)
			}
			if string(got) != string(want) {
				gotLines, wantLines := splitLines(got), splitLines(want)
				for i := range wantLines {
					if i >= len(gotLines) || gotLines[i] != wantLines[i] {
						t.Fatalf("event trace diverged at event %d:\n got %s\nwant %s",
							i, lineOrNil(gotLines, i), lineOrNil(wantLines, i))
					}
				}
				t.Fatalf("event trace diverged: got %d events, golden has %d", len(gotLines), len(wantLines))
			}
		})
	}
}

// checkEventOrdering asserts the per-epoch protocol the engine
// documents: Propose precedes EpochStart, EpochEnd precedes Observe,
// retriggers only ever follow an Observe, and sequence numbers are
// contiguous from zero.
func checkEventOrdering(t *testing.T, events []obs.Event) {
	t.Helper()
	var last obs.EventType
	for i, ev := range events {
		if ev.Seq != int64(i) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		switch ev.Type {
		case obs.EventEpochStart:
			if last != obs.EventPropose {
				t.Fatalf("event %d: EpochStart follows %s, want Propose", i, last)
			}
		case obs.EventObserve:
			if last != obs.EventEpochEnd {
				t.Fatalf("event %d: Observe follows %s, want EpochEnd", i, last)
			}
		case obs.EventRetriggerEpsilon:
			if last != obs.EventObserve {
				t.Fatalf("event %d: RetriggerEpsilon follows %s, want Observe", i, last)
			}
		}
		last = ev.Type
	}
}

func splitLines(b []byte) []string {
	var out []string
	for len(b) > 0 {
		i := 0
		for i < len(b) && b[i] != '\n' {
			i++
		}
		out = append(out, string(b[:i]))
		if i < len(b) {
			i++
		}
		b = b[i:]
	}
	return out
}

func lineOrNil(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(missing)"
}
