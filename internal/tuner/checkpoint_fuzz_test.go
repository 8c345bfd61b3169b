package tuner

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dstune/internal/xfer"
)

// FuzzLoadCheckpoint feeds arbitrary bytes through the checkpoint
// loaders — as the head and as the epoch log beside it — and, when a
// checkpoint is accepted, through every strategy's Restore. Corrupt or
// truncated input must surface as an error — never a panic — and
// anything accepted must satisfy the loader's invariants.
func FuzzLoadCheckpoint(f *testing.F) {
	// Seed the corpus with a real checkpoint in this build's layout and
	// in the retired single-file one (version 2, trace inline: rejected
	// since, but still input a loader must survive), truncations of
	// it, and hand-corrupted variants.
	ck := &Checkpoint{
		Version:  2,
		Tuner:    "cs-tuner",
		Seed:     7,
		Epochs:   1,
		Strategy: json.RawMessage(`{"Phase":"search","Monitor":{"Last":0,"Armed":false}}`),
		Trace: []EpochRecord{
			{X: []int{2}},
		},
	}
	valid, err := json.Marshal(ck)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, []byte(nil))
	f.Add(valid[:len(valid)/2], []byte(nil))
	f.Add([]byte(`{}`), []byte(nil))
	f.Add([]byte(`{"version":2,"epochs":3,"trace":[]}`), []byte(nil))
	f.Add([]byte(`{"version":99}`), []byte(nil))
	f.Add([]byte(`{"version":2,"strategy":{"Phase":"bogus"}}`), []byte(nil))
	f.Add([]byte(`null`), []byte(nil))
	f.Add([]byte(``), []byte(nil))
	// Learned-strategy checkpoints: a real rl-bandit state, and one
	// whose prior holds a negative visit count, in this build's layout
	// with the one epoch record their heads count, so that Restore sees
	// them; then hostile variants in the retired layout — an
	// out-of-grid arm, an overflowing Q-value.
	rec := `{"x":[2],"report":{"Start":0,"End":30,"Bytes":3e9,"Throughput":1e8}}` + "\n"
	bandit := NewRLBandit(simCfg())
	bandit.Propose()
	bandit.Observe(xfer.Report{End: 30, Bytes: 3e9, Throughput: 1e8})
	state, err := bandit.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	hostile := bandit.st
	hostile.GN = append([]int(nil), hostile.GN...)
	hostile.GN[1] = -1
	bad, err := json.Marshal(hostile)
	if err != nil {
		f.Fatal(err)
	}
	for _, st := range [][]byte{state, bad} {
		f.Add([]byte(`{"version":3,"tuner":"rl-bandit","seed":7,"epochs":1,"transfer":{},"strategy":`+string(st)+`}`), []byte(rec))
	}
	f.Add([]byte(`{"version":2,"tuner":"rl-bandit","epochs":1,"strategy":{"pending":64,"q":[[0]],"n":[[0]]},"trace":[{"x":[2]}]}`), []byte(nil))
	f.Add([]byte(`{"version":2,"tuner":"rl-bandit","epochs":1,"strategy":{"q":[[1e999]]},"trace":[{"x":[2]}]}`), []byte(nil))
	// Head and log: the pair a FileCheckpoint writes, then a log that
	// is torn, short of the head, longer than it, or not records at
	// all, and heads that miscount or smuggle a trace in.
	head := []byte(`{"version":3,"tuner":"cs-tuner","seed":7,"epochs":2,"transfer":{},"strategy":{"Phase":"search"}}`)
	f.Add(head, []byte(rec+rec))
	f.Add(head, []byte(rec+rec[:len(rec)/2]))
	f.Add(head, []byte(rec))
	f.Add(head, []byte(rec+rec+rec+`{"x":`))
	f.Add(head, []byte("\n\n\n"))
	f.Add(head, []byte(rec+"[1,2]\n"))
	f.Add([]byte(`{"version":3,"epochs":-1}`), []byte(rec))
	f.Add([]byte(`{"version":3,"epochs":9223372036854775807}`), []byte(rec))
	f.Add([]byte(`{"version":3,"epochs":1,"trace":[{"x":[2]}]}`), []byte(rec))
	f.Add([]byte(`{"version":3,"epochs":0}`), []byte(nil))

	names := strategyNames()
	f.Fuzz(func(t *testing.T, head, log []byte) {
		path := filepath.Join(t.TempDir(), "ck.json")
		if err := os.WriteFile(path, head, 0o644); err != nil {
			t.Fatal(err)
		}
		if log != nil {
			if err := os.WriteFile(path+".log", log, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if h, err := LoadCheckpointHead(path); err == nil && (h.Version != CheckpointVersion || h.Trace != nil || h.Epochs < 0) {
			t.Fatalf("head loader accepted version %d, %d epochs, %d trace records", h.Version, h.Epochs, len(h.Trace))
		}
		ck, err := LoadCheckpoint(path)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if ck.Version != CheckpointVersion {
			t.Fatalf("loader accepted version %d", ck.Version)
		}
		if ck.Epochs != len(ck.Trace) {
			t.Fatalf("loader accepted %d epochs with %d trace records", ck.Epochs, len(ck.Trace))
		}
		// An accepted checkpoint's strategy state must restore cleanly
		// or error — arbitrary raw state must never panic a strategy.
		if len(ck.Strategy) == 0 {
			return
		}
		for _, name := range names {
			s, err := NewStrategy(name, simCfg())
			if err != nil {
				t.Fatal(err)
			}
			_ = s.Restore(ck.Strategy)
		}
	})
}
