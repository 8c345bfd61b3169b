package tuner

import (
	"context"
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

// strategyCases lists every built-in strategy: the registry's rows and
// warm starts of three of them.
func strategyCases() []strategyCase {
	var cases []strategyCase
	for _, name := range StrategyNames() {
		cases = append(cases, strategyCase{name: name})
	}
	return append(cases,
		strategyCase{"cs-tuner", true}, strategyCase{"cd-tuner", true}, strategyCase{"rl-bandit", true})
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
// a test can prove how a resumed session rebuilt the state (one
// replayed Propose and Observe per recorded epoch) and that a cancelled
// Step made neither call.
type countingStrategy struct {
	Strategy
	proposes, observes int
}

func (c *countingStrategy) Propose() ([]int, bool) {
	c.proposes++
	return c.Strategy.Propose()
}

func (c *countingStrategy) Observe(rep xfer.Report) {
	c.observes++
	c.Strategy.Observe(rep)
}

// TestResumeReplaysEveryStrategy is the resume property for every
// strategy: a run interrupted after k epochs resumes by replaying its
// k recorded epochs through a freshly resolved strategy — k Proposes
// and Observes before the live epochs' — and produces the
// uninterrupted trace.
func TestResumeReplaysEveryStrategy(t *testing.T) {
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

			// Resume on the same live transfer with a counting wrapper:
			// the trace must match the reference, via the k replayed
			// epochs and then the live ones.
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
			want := len(ref.Results) // interruptAfter replayed, the rest live
			if cs.proposes != want || cs.observes != want {
				t.Fatalf("resume called Propose %d and Observe %d times, want %d each (%d replayed, %d live)",
					cs.proposes, cs.observes, want, interruptAfter, len(ref.Results)-interruptAfter)
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
