package tuner

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dstune/internal/endpoint"
	"dstune/internal/load"
	"dstune/internal/netem"
	"dstune/internal/obs"
	"dstune/internal/xfer"
)

// simLoadedTransfer builds the simTransfer world with a Step load
// schedule: heavy external traffic for the first half of the budget,
// light after — the dynamic regime the learned strategy is built
// for.
func simLoadedTransfer(t *testing.T, seed uint64) *xfer.Sim {
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
	f.SetLoad(load.Step(30, load.Load{Tfr: 24, Cmp: 8}, load.Load{Tfr: 4}), nil)
	tr, err := f.NewTransfer(xfer.TransferConfig{Name: "t", Bytes: xfer.Unbounded})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestRLResumeByteIdentical is the acceptance property in its
// strictest form: for the learned strategy, a run interrupted
// mid-flight and resumed from its checkpoint must produce a trace that
// is byte-identical (as canonical JSON) to the uninterrupted run's —
// the Q-tables, visit counts, and RNG stream position all survive the
// round trip exactly.
func TestRLResumeByteIdentical(t *testing.T) {
	const seed = 11
	const interruptAfter = 4
	for _, name := range []string{"rl-bandit"} {
		t.Run(name, func(t *testing.T) {
			ref, err := mustStrategyRun(t, strategyCase{name: name}, simCfg(), seed)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			if len(ref.Results) <= interruptAfter {
				t.Fatalf("reference run too short: %d epochs", len(ref.Results))
			}

			live := simTransfer(t, seed)
			var last *Checkpoint
			drain := make(chan struct{})
			drained := false
			cfg := simCfg()
			cfg.Drain = drain
			cfg.Checkpoint = CheckpointFunc(func(ck *Checkpoint) error {
				last = ck
				if ck.Epochs >= interruptAfter && !drained {
					drained = true
					close(drain)
				}
				return nil
			})
			if _, err := runStepped(context.Background(), name, cfg, nil, live); err != ErrInterrupted {
				t.Fatalf("drained run returned %v, want ErrInterrupted", err)
			}

			rcfg := simCfg()
			rcfg.Resume = last
			resumed, err := runStepped(context.Background(), name, rcfg, nil, live)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}

			want, err := json.Marshal(ref)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(resumed)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("resumed trace not byte-identical to uninterrupted:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestGoldenRLEventTrace pins rl-bandit's full event stream —
// including its RLAction events — on a Step-load world, exactly as
// TestGoldenEventTrace pins the search strategies'. When
// DSTUNE_EVENT_TRACE is set the trace is also written to
// $DSTUNE_EVENT_TRACE.rl-bandit-step.jsonl for the CI race job's
// artifacts (the label avoids ':' because it is spliced into filenames).
func TestGoldenRLEventTrace(t *testing.T) {
	const label = "rl-bandit-step"
	observer := obs.NewObserver(obs.ObserverConfig{})
	cfg := simCfg()
	cfg.Obs = observer.Session("e2e")
	cfg.Checkpoint = CheckpointFunc(func(*Checkpoint) error { return nil })
	if _, err := Run(t.Context(), "rl-bandit", cfg, simLoadedTransfer(t, 11)); err != nil {
		t.Fatal(err)
	}

	events := observer.Recorder().Events()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	checkEventOrdering(t, events)
	sawAction := false
	for _, ev := range events {
		if ev.Type == obs.EventRLAction {
			sawAction = true
			break
		}
	}
	if !sawAction {
		t.Fatal("trace carries no RLAction events")
	}

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
		if err := os.WriteFile(path+"."+label+".jsonl", got, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	path := filepath.Join("testdata", "golden", "events_"+label+".jsonl")
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
}

// TestRLContextBuckets pins the context quantizer's edges.
func TestRLContextBuckets(t *testing.T) {
	cases := []struct {
		fit   float64
		lossy bool
		want  int
	}{
		{0, false, 0},
		{-1, false, 0},
		{1, false, 1},       // below the anchor clamps into bucket 1
		{1 << 20, false, 1}, // the anchor itself
		{1 << 21, false, 2}, // one doubling up
		{1e18, false, rlLoadBuckets - 1},
		{0, true, rlLoadBuckets},
		{1 << 21, true, rlLoadBuckets + 2},
	}
	for _, tc := range cases {
		if got := rlContext(tc.fit, tc.lossy); got != tc.want {
			t.Errorf("rlContext(%g, %v) = %d, want %d", tc.fit, tc.lossy, got, tc.want)
		}
	}
}

// TestRLBanditGrid pins the arm grid: geometric ladders spanning the
// box, endpoints included, off-ladder start appended.
func TestRLBanditGrid(t *testing.T) {
	cfg := simCfg() // box [1,32]
	s := NewRLBandit(cfg)
	wantArms := 6 // 1,2,4,8,16,32
	if len(s.arms) != wantArms {
		t.Fatalf("grid has %d arms %v, want %d", len(s.arms), s.arms, wantArms)
	}
	cfg.Start = []int{21} // off the ladder
	s = NewRLBandit(cfg)
	if len(s.arms) != wantArms+1 {
		t.Fatalf("off-ladder start: grid has %d arms %v, want %d", len(s.arms), s.arms, wantArms+1)
	}
	if x, _ := s.Propose(); x[0] != 21 {
		t.Fatalf("first proposal %v, want the configured start 21", x)
	}
}

// BenchmarkRLPropose measures the learned strategy's hot path: one
// Propose plus one Observe per epoch, including the value update and
// the next arm choice.
func BenchmarkRLPropose(b *testing.B) {
	for _, name := range []string{"rl-bandit"} {
		b.Run(name, func(b *testing.B) {
			s, err := NewStrategy(name, simCfg())
			if err != nil {
				b.Fatal(err)
			}
			rep := xfer.Report{Start: 0, End: 5, Bytes: 5e8, Throughput: 2.5e8, BestCase: 2.6e8}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x, _ := s.Propose()
				rep.Start = float64(i) * 5
				rep.End = rep.Start + 5
				rep.Throughput = 1e8 + float64(x[0])*5e6
				s.Observe(rep)
			}
		})
	}
}
