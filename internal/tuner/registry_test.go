package tuner

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dstune/internal/history"
	"dstune/internal/xfer"
)

// storeKinds are the three knowledge-plane situations a named run can
// start in: no store, a store with nothing under the run's key, and a
// store whose record under the key predicts [14].
var storeKinds = []string{"cold", "miss", "hit"}

// withStore returns cfg in the named situation.
func withStore(t *testing.T, cfg Config, kind string) Config {
	t.Helper()
	switch kind {
	case "miss":
		cfg.History, cfg.HistoryKey = seededStore(t, []int{14}), history.Key{Endpoint: "elsewhere"}
	case "hit":
		cfg.History, cfg.HistoryKey = seededStore(t, []int{14}), simKey()
	}
	return cfg
}

// proposalRun is one fixture entry of TestProposalsMatchParent.
type proposalRun struct {
	// ParentTuner is the Trace.Tuner the parent commit gave the run;
	// informational — this build names every run for its algorithm.
	ParentTuner string `json:"parent_tuner"`
	// X holds the proposal of every epoch.
	X [][]int `json:"x"`
}

// TestProposalsMatchParent holds "same behaviour" across the removal of
// the warm-start wrapper: testdata/golden/proposals.json was recorded on
// the commit before it — Run under that ResolveStrategy, store-backed
// runs named "warm:<inner>" there, as parent_tuner keeps — and every
// 40-epoch run, for every registry row, without a store, on a store miss and on a store hit, must propose the
// same vectors here under the row's own name. The vectors were
// regenerated, by the same throw-away generator, when the simulator's
// loss draw became a per-flow clock (DESIGN.md §4).
func TestProposalsMatchParent(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", "proposals.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]proposalRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(StrategyNames())*len(storeKinds) {
		t.Fatalf("fixture holds %d runs, want %d", len(want), len(StrategyNames())*len(storeKinds))
	}
	for _, name := range StrategyNames() {
		for _, kind := range storeKinds {
			t.Run(name+"/"+kind, func(t *testing.T) {
				cfg := withStore(t, simCfg(), kind)
				cfg.Budget = 200 // 40 epochs
				tr, err := Run(context.Background(), name, cfg, simTransfer(t, 11))
				if err != nil {
					t.Fatal(err)
				}
				if tr.Tuner != name {
					t.Fatalf("trace is named %q, want %q", tr.Tuner, name)
				}
				var got [][]int
				for _, r := range tr.Results {
					got = append(got, r.X)
				}
				if w := want[name+"/"+kind]; len(got) != 40 || !reflect.DeepEqual(got, w.X) {
					t.Fatalf("proposed\n %v\nthe parent (as %s) proposed\n %v", got, w.ParentTuner, w.X)
				}
			})
		}
	}
}

// TestColdCheckpointMatchesParent: a session without a history store
// writes the checkpoint the parent commit wrote — the header (no
// "start" key) and every record — but for the transfer state its
// records now carry. The fixture holds a 12-epoch run of every name,
// recorded on the parent and, but for the retired rl-q's, regenerated
// when the simulator's loss draw became a per-flow clock; its epoch
// logs were since re-framed as the records of one file.
func TestColdCheckpointMatchesParent(t *testing.T) {
	want := coldCheckpoints(t)
	for _, name := range StrategyNames() {
		t.Run(name, func(t *testing.T) {
			fc := NewFileCheckpoint(filepath.Join(t.TempDir(), "run.ck"))
			cfg := simCfg()
			cfg.Checkpoint = fc
			if _, err := Run(context.Background(), name, cfg, simTransfer(t, 11)); err != nil {
				t.Fatal(err)
			}
			w, ok := want[name]
			if !ok {
				t.Fatal("fixture has no checkpoint for this strategy")
			}
			got, parent := parentView(t, mustRead(t, fc.Path())), parentView(t, []byte(w))
			if got[0] != parent[0] {
				t.Fatalf("header\n %s\nthe parent wrote\n %s", got[0], parent[0])
			}
			if !reflect.DeepEqual(got, parent) {
				t.Fatal("records differ from the parent's")
			}
		})
	}
}

// coldCheckpoints reads testdata/golden/cold_checkpoints.json: a
// checkpoint file per strategy name.
func coldCheckpoints(t *testing.T) map[string]string {
	t.Helper()
	var files map[string]string
	if err := json.Unmarshal(mustRead(t, filepath.Join("testdata", "golden", "cold_checkpoints.json")), &files); err != nil {
		t.Fatal(err)
	}
	return files
}

// TestParentWarmCheckpointRefused: testdata/parent_warm.checkpoint is the
// checkpoint a store-backed cs-tuner run of an earlier build wrote,
// under the wrapper name that no longer exists, and the "rl-q" entry of
// testdata/golden/cold_checkpoints.json is a checkpoint of the tabular
// Q-learner since deleted. Resuming either is refused by its name — at
// Run, and at NewStrategy — rather than cold-started under another.
func TestParentWarmCheckpointRefused(t *testing.T) {
	rlq := filepath.Join(t.TempDir(), "rl-q.ck")
	if err := os.WriteFile(rlq, []byte(coldCheckpoints(t)["rl-q"]), 0o644); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]struct {
		tuner  string
		epochs int
	}{
		filepath.Join("testdata", "parent_warm.checkpoint"): {"warm:cs-tuner", 3},
		rlq: {"rl-q", 12},
	} {
		ck, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		if ck.Tuner != want.tuner || ck.Epochs != want.epochs {
			t.Fatalf("fixture is a %d-epoch checkpoint of %q", ck.Epochs, ck.Tuner)
		}
		cfg := simCfg()
		cfg.Resume = ck
		_, err = Run(context.Background(), "cs-tuner", cfg, simTransfer(t, 11))
		if err == nil || !strings.Contains(err.Error(), `"`+want.tuner+`"`) {
			t.Fatalf("resume of the parent's %s checkpoint returned %v, want a refusal naming it", want.tuner, err)
		}
	}
	for _, gone := range []string{"warm:cs-tuner", "warm:kernel-aware:cs-tuner", "static", "kernel-aware:static", "rl-q", "kernel-aware:rl-q", "two-phase", "kernel-aware:cs-tuner"} {
		if _, err := NewStrategy(gone, simCfg()); err == nil || KnownStrategy(gone) {
			t.Fatalf("retired name %q still resolves", gone)
		}
	}
}

// TestRegistryTable walks the registry: every row constructs under its
// own name, is known, snapshots to JSON at every step of a 20-epoch
// run, and the two columns read as documented. Names that are no row —
// among them the withdrawn two-phase and kernel-aware: prefix — do not
// resolve, and the usage lists the rows alone.
func TestRegistryTable(t *testing.T) {
	for _, name := range StrategyNames() {
		t.Run(name, func(t *testing.T) {
			if !KnownStrategy(name) {
				t.Fatal("not known")
			}
			cfg := simCfg()
			s, err := NewStrategy(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if s.Name() != name {
				t.Fatalf("Name() = %q", s.Name())
			}
			tr := simTransfer(t, 11)
			defer tr.Stop()
			for epoch := 0; epoch < 20; epoch++ {
				x, _ := s.Propose()
				rep, err := tr.Run(context.Background(), cfg.Map(x), cfg.Epoch)
				if err != nil {
					t.Fatal(err)
				}
				s.Observe(rep)
				raw, err := s.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !json.Valid(raw) {
					t.Fatalf("epoch %d: snapshot is not JSON: %s", epoch, raw)
				}
			}
		})
	}
	for _, name := range StrategyNames() {
		if got := RestartPolicyFor(name); (got == xfer.RestartOnChange) != (name == "default") {
			t.Fatalf("RestartPolicyFor(%q) = %v: only default keeps its processes alive", name, got)
		}
		if ReadsKernel(name) != (name == "rl-bandit") {
			t.Fatalf("ReadsKernel(%q) = %v: only rl-bandit reads the kernel", name, !ReadsKernel(name))
		}
	}
	for _, bad := range []string{"two-phase", "kernel-aware:cs-tuner", "kernel-aware:rl-bandit", "kernel-aware:", "", "bogus"} {
		if _, err := NewStrategy(bad, simCfg()); err == nil || KnownStrategy(bad) || ReadsKernel(bad) {
			t.Fatalf("%q resolves", bad)
		}
	}
	if want := strings.Join(StrategyNames(), ", "); StrategyUsage() != want {
		t.Fatalf("StrategyUsage() = %q", StrategyUsage())
	}
}
