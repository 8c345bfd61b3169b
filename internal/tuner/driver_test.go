package tuner

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"dstune/internal/xfer"
)

// strategyCase is one strategy the table tests run: a name NewStrategy
// accepts, cold or — warm — started from the prediction [14] of a
// history store, the way ResolveStrategy starts a store-backed session.
type strategyCase struct {
	name string
	warm bool
}

// label is the case's subtest name: the strategy's name, and for a warm
// case the store it started from.
func (c strategyCase) label() string {
	if c.warm {
		return c.name + "+history"
	}
	return c.name
}

// resolve builds the case's strategy through ResolveStrategy and
// returns the configuration it was resolved under, the strategy, and
// the start the session must record: a warm case gets a store that
// predicts [14], which a cfg.Resume checkpoint outranks.
func (c strategyCase) resolve(t *testing.T, cfg Config) (Config, Strategy, []int) {
	t.Helper()
	if c.warm {
		cfg = withStore(t, cfg, "hit")
	}
	s, start, err := ResolveStrategy(c.name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm := start != nil; warm != c.warm {
		t.Fatalf("%s resolved with start %v", c.label(), start)
	}
	return cfg, s, start
}

// strategyCases lists every built-in strategy: the registry's rows,
// kernel-aware wrappers, and warm starts of both.
func strategyCases() []strategyCase {
	var cases []strategyCase
	for _, name := range StrategyNames() {
		cases = append(cases, strategyCase{name: name})
	}
	return append(cases,
		strategyCase{"cs-tuner", true}, strategyCase{"cd-tuner", true}, strategyCase{"rl-bandit", true},
		strategyCase{name: "kernel-aware:cs-tuner"}, strategyCase{name: "kernel-aware:rl-bandit"},
		strategyCase{"kernel-aware:cs-tuner", true})
}

// strategyNames lists the name of every case, once.
func strategyNames() []string {
	var names []string
	for _, c := range strategyCases() {
		if !c.warm {
			names = append(names, c.name)
		}
	}
	return names
}

// countingStrategy wraps a Strategy and counts the protocol calls, so
// a test can prove how a resumed session rebuilt the state: one Restore
// and zero replayed Proposes for the direct path.
type countingStrategy struct {
	Strategy
	proposes, observes, restores int
}

func (c *countingStrategy) Propose() ([]int, bool) {
	c.proposes++
	return c.Strategy.Propose()
}

func (c *countingStrategy) Observe(rep xfer.Report) {
	c.observes++
	c.Strategy.Observe(rep)
}

func (c *countingStrategy) Restore(raw json.RawMessage) error {
	c.restores++
	return c.Strategy.Restore(raw)
}

// TestDirectResumeSkipsReplay is the O(1)-resume property: for every
// strategy, a run interrupted after k epochs resumes by deserializing
// the checkpointed strategy state directly — exactly one Restore, no
// replayed proposals — and still produces the uninterrupted trace.
func TestDirectResumeSkipsReplay(t *testing.T) {
	const seed = 11
	const interruptAfter = 3
	for _, c := range strategyCases() {
		t.Run(c.label(), func(t *testing.T) {
			// Reference: an uninterrupted run.
			ref, err := mustStrategyRun(t, c, simCfg(), seed)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			if len(ref.Results) <= interruptAfter {
				t.Fatalf("reference run too short: %d epochs", len(ref.Results))
			}

			// Interrupted: drain after k epochs, keeping the last
			// checkpoint.
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
			cfg, s, start := c.resolve(t, cfg)
			if _, err := cfg.run(context.Background(), s, start, live); err != ErrInterrupted {
				t.Fatalf("drained run returned %v, want ErrInterrupted", err)
			}
			if last == nil || last.Epochs != interruptAfter {
				t.Fatalf("last checkpoint holds %v epochs, want %d", last, interruptAfter)
			}
			if len(last.Strategy) == 0 {
				t.Fatal("checkpoint carries no strategy state")
			}

			// Resume on the same live transfer with a counting wrapper:
			// the trace must match the reference, via exactly one Restore
			// and only the live epochs' Proposes — no replay.
			rcfg := simCfg()
			rcfg.Resume = last
			rcfg, rs, start := c.resolve(t, rcfg)
			cs := &countingStrategy{Strategy: rs}
			resumed, err := rcfg.run(context.Background(), cs, start, live)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if !reflect.DeepEqual(resumed.Results, ref.Results) {
				t.Fatalf("resumed trace diverged from reference:\n got %+v\nwant %+v",
					resumed.Results, ref.Results)
			}
			liveEpochs := len(ref.Results) - interruptAfter
			if cs.restores != 1 {
				t.Fatalf("resume called Restore %d times, want 1", cs.restores)
			}
			if cs.proposes != liveEpochs {
				t.Fatalf("resume called Propose %d times, want %d (replay would add %d)",
					cs.proposes, liveEpochs, interruptAfter)
			}
			if cs.observes != liveEpochs {
				t.Fatalf("resume called Observe %d times, want %d", cs.observes, liveEpochs)
			}
		})
	}
}

// TestSnapshotRestoreRoundTrip: after any number of observed epochs,
// Snapshot into a fresh identically-configured strategy — built, as a
// resume builds it, under the original's seed and start — must continue
// with exactly the proposals the original produces.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	const seed = 11
	for _, c := range strategyCases() {
		t.Run(c.label(), func(t *testing.T) {
			cfg := simCfg()
			cfg.Budget = 100 // 20 epochs: deep enough to cross phases
			cfg, orig, start := c.resolve(t, cfg)
			cfg.Resume = &Checkpoint{Tuner: c.name, Seed: cfg.Seed, Start: start}
			tr := simTransfer(t, seed)
			defer tr.Stop()
			ctx := context.Background()
			for epoch := 0; epoch < 20; epoch++ {
				x, done := orig.Propose()
				if done {
					break
				}
				rep, err := tr.Run(ctx, cfg.Map(x), cfg.Epoch)
				if err != nil {
					t.Fatal(err)
				}
				orig.Observe(rep)

				raw, err := orig.Snapshot()
				if err != nil {
					t.Fatalf("epoch %d: snapshot: %v", epoch, err)
				}
				_, clone, _ := c.resolve(t, cfg)
				if err := clone.Restore(raw); err != nil {
					t.Fatalf("epoch %d: restore: %v", epoch, err)
				}
				ox, od := orig.Propose()
				cx, cd := clone.Propose()
				if od != cd || !reflect.DeepEqual(ox, cx) {
					t.Fatalf("epoch %d: restored clone proposes (%v,%v), original (%v,%v)",
						epoch, cx, cd, ox, od)
				}
			}
		})
	}
}

// mustStrategyRun runs the case's strategy to the end of a fresh
// simulated transfer.
func mustStrategyRun(t *testing.T, c strategyCase, cfg Config, seed uint64) (*Trace, error) {
	t.Helper()
	cfg, s, start := c.resolve(t, cfg)
	return cfg.run(context.Background(), s, start, simTransfer(t, seed))
}
