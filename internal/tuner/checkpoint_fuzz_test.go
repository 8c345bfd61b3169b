package tuner

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dstune/internal/xfer"
)

// FuzzLoadCheckpoint feeds arbitrary bytes through the checkpoint
// loaders — as the head and as the epoch log beside it — and resumes
// every checkpoint they accept under the strategy name it carries, so
// its log is replayed. Corrupt or truncated input must surface as an
// error — never a panic — from the loader or the replay, and anything
// accepted must satisfy the loader's invariants.
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
	// with the one epoch record their heads count, so that the replay
	// runs it — the state is never read back; then hostile variants in
	// the retired layout — an out-of-grid arm, an overflowing Q-value.
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
	// Pairs whose logs replay: every cold name's, as a drained run with
	// a transient last epoch writes them, cd-tuner's with a start of the
	// wrong width, which ResolveStrategy refuses (replayed, it indexed
	// past an empty vector), and model's with a hostile report.
	var pairs map[string]struct{ Head, Log string }
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", "parent_checkpoints.json"))
	if err == nil {
		err = json.Unmarshal(raw, &pairs)
	}
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range strategyNames() {
		f.Add([]byte(pairs[name].Head), []byte(pairs[name].Log))
	}
	f.Add([]byte(`{"version":3,"tuner":"cd-tuner","seed":7,"start":[],"epochs":2,"transfer":{}}`), []byte("{\"x\":[]}\n{\"x\":[]}\n"))
	f.Add([]byte(`{"version":3,"tuner":"model","seed":7,"epochs":1,"transfer":{}}`),
		[]byte(`{"x":[2],"report":{"Start":-1e308,"End":1e308,"Throughput":-1e308,"BestCase":1e308,"Kernel":{"retrans_delta":-9,"stripes":[{}]}}}`+"\n"))

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
		// An accepted checkpoint resumes or is refused; arbitrary
		// records must never panic the strategy they are replayed into.
		cfg := simCfg()
		cfg.Resume = ck
		s, start, err := ResolveStrategy(ck.Tuner, cfg)
		if err != nil {
			return
		}
		_, _ = NewSessionRuntime(cfg.Session("", s, start, newFake(peaked(10))))
	})
}
