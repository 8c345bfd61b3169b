package tuner

import (
	"encoding/json"
	"fmt"
	"strings"

	"dstune/internal/history"
	"dstune/internal/ivec"
	"dstune/internal/xfer"
)

// Strategy is a tuner's decision kernel as an explicit state machine:
// a pure function of the observed epoch reports. Propose returns the
// parameter vector for the next control epoch; Observe folds in the
// epoch's report and advances the state. The epoch engine behind
// Driver, Fleet and SessionRuntime owns everything else — the loop,
// pacing, budget, transient-failure counting, and checkpointing — so
// one process can step many strategies concurrently and a checkpoint
// can serialize a strategy mid-flight.
//
// Protocol: Propose, run the epoch, Observe, repeat. Propose is
// idempotent — calling it again before Observe returns the same
// vector — and must be called at least once before the first Observe.
// A strategy's state after k Observe calls is a deterministic function
// of its configuration and the k observed reports; Snapshot/Restore
// round-trip that state exactly, which is what makes O(1) resume
// equivalent to replaying the recorded epochs.
type Strategy interface {
	// Name returns the strategy's conventional name, e.g. "cs-tuner".
	Name() string
	// Propose returns the vector for the next epoch, or done=true when
	// the strategy has nothing further to run (no built-in strategy
	// terminates; they hold their final vector forever).
	Propose() ([]int, bool)
	// Observe folds one epoch report into the state machine. A
	// tolerated transient failure arrives as a zero-throughput report,
	// so the ε-monitor re-triggers naturally once the transfer
	// recovers.
	Observe(rep xfer.Report)
	// Snapshot returns the strategy's complete serializable state.
	Snapshot() (json.RawMessage, error)
	// Restore replaces the strategy's state with a Snapshot taken from
	// an identically configured strategy, validating it first.
	Restore(raw json.RawMessage) error
}

// NewStrategy builds the named strategy — one of "default",
// "cd-tuner", "cs-tuner", "nm-tuner", "heur1", "heur2", "model",
// "two-phase", "rl-bandit", "rl-q", "kernel-aware:<inner>", or
// "warm:<inner>" — from cfg.
// The prefixed and two-phase forms construct cold (no history store):
// a checkpointed warm run resumes through this constructor by name
// alone, taking its predicted start from the serialized state rather
// than a store. The prefixes compose in exactly one order:
// "warm:kernel-aware:<inner>".
func NewStrategy(name string, cfg Config) (Strategy, error) {
	if inner, ok := strings.CutPrefix(name, "warm:"); ok {
		return NewWarmStart(inner, cfg, nil, history.Key{})
	}
	if inner, ok := strings.CutPrefix(name, "kernel-aware:"); ok {
		return NewKernelAware(inner, cfg)
	}
	switch name {
	case "default", "static":
		return NewStaticStrategy(cfg), nil
	case "cd-tuner":
		return NewCDStrategy(cfg), nil
	case "cs-tuner":
		return NewCSStrategy(cfg), nil
	case "nm-tuner":
		return NewNMStrategy(cfg), nil
	case "heur1":
		return NewHeur1Strategy(cfg), nil
	case "heur2":
		return NewHeur2Strategy(cfg), nil
	case "model":
		return NewModelStrategy(cfg), nil
	case "two-phase":
		return NewTwoPhaseStrategy(cfg), nil
	case "rl-bandit":
		return NewRLBandit(cfg), nil
	case "rl-q":
		return NewRLQ(cfg), nil
	}
	return nil, fmt.Errorf("tuner: unknown strategy %q", name)
}

// ResolveStrategy builds the strategy a session runs from the tuner
// name its owner was given, the history store the owner holds (nil for
// none) and the session's key in it — the one place a session's owner
// decides between the cold, warm and resumed forms:
//
//   - cfg.Resume set: the strategy the checkpoint names, built cold under
//     the checkpoint's seed (so its RNG is the one the recorded run
//     drew from). The checkpointed state is authoritative (a
//     store-wrapped run checkpoints as "warm:<inner>" with its
//     prediction inside), so neither name nor store is consulted.
//   - "two-phase": its coarse candidates are seeded from the store.
//   - "warm:<inner>", or any other name with a store: the inner strategy
//     warm-started from the store (cold under the warm name without one).
//   - otherwise the plain named strategy.
func ResolveStrategy(name string, cfg Config, store *history.Store, key history.Key) (Strategy, error) {
	if ck := cfg.Resume; ck != nil {
		cfg.Seed = ck.Seed
		return NewStrategy(ck.Tuner, cfg)
	}
	inner, warm := strings.CutPrefix(name, "warm:")
	switch {
	case name == "two-phase":
		return NewTwoPhase(cfg, store, key), nil
	case warm || store != nil:
		return NewWarmStart(inner, cfg, store, key)
	}
	return NewStrategy(name, cfg)
}

// RestartPolicyFor returns the restart policy a simulated transfer
// runs under for the named strategy. The static Globus default
// ("default", its alias "static", or either under a wrapper prefix)
// keeps its processes alive between epochs, as the real service does;
// every adaptive tuner restarts them per epoch, as the paper's wrappers
// do. The binaries and the figure harnesses all ask here, so a baseline
// is the same baseline wherever it is run.
func RestartPolicyFor(name string) xfer.RestartPolicy {
	for _, prefix := range []string{"warm:", "kernel-aware:"} {
		name = strings.TrimPrefix(name, prefix)
	}
	if name == "default" || name == "static" {
		return xfer.RestartOnChange
	}
	return xfer.RestartEveryEpoch
}

// ReadsKernel reports whether the named strategy consults
// Report.Kernel: kernel-aware:<inner> and the two learned strategies,
// under a warm: prefix or not. Whoever builds a socket transfer asks
// here and switches the TCP_INFO sampler on for such a strategy, so it
// is not inert at a door that has no flag for the sampler.
func ReadsKernel(name string) bool {
	name = strings.TrimPrefix(name, "warm:")
	return strings.HasPrefix(name, "kernel-aware:") || name == "rl-bandit" || name == "rl-q"
}

// StrategyNames lists every base (unprefixed) strategy name NewStrategy
// accepts, in documentation order. The "static" alias for "default" is
// not listed. STRATEGIES.md keeps one section per name (plus the two
// wrapper prefixes); TestStrategyDocCoverage fails when one goes
// undocumented.
func StrategyNames() []string {
	return []string{
		"default", "cd-tuner", "cs-tuner", "nm-tuner", "heur1", "heur2",
		"model", "two-phase", "rl-bandit", "rl-q",
	}
}

// KnownStrategy reports whether name resolves to a built-in strategy,
// including the "warm:<inner>" and "kernel-aware:<inner>" prefixed
// forms (neither wrapper nests itself, and warm goes outside
// kernel-aware, never inside).
func KnownStrategy(name string) bool {
	if inner, ok := strings.CutPrefix(name, "warm:"); ok {
		return !strings.HasPrefix(inner, "warm:") && KnownStrategy(inner)
	}
	if inner, ok := strings.CutPrefix(name, "kernel-aware:"); ok {
		return !strings.HasPrefix(inner, "kernel-aware:") &&
			!strings.HasPrefix(inner, "warm:") && KnownStrategy(inner)
	}
	if name == "static" {
		return true
	}
	for _, n := range StrategyNames() {
		if name == n {
			return true
		}
	}
	return false
}

// fitnessOf returns the objective value of an epoch under the
// configured observation mode.
func fitnessOf(cfg Config, rep xfer.Report) float64 {
	if cfg.ObserveBestCase {
		return rep.BestCase
	}
	return rep.Throughput
}

// Monitor is the paper's ε-monitor, shared by every strategy that
// holds a vector and watches consecutive epoch throughputs: Observe
// compares each reading against the previous one and reports whether
// the relative change exceeded the tolerance. An unarmed monitor
// (fresh, or after Disarm) absorbs its first reading as the new
// baseline without triggering.
type Monitor struct {
	// Tolerance is the significance threshold ε in percent. It comes
	// from the configuration, not the serialized state.
	Tolerance float64 `json:"-"`
	// Last is the previous epoch's objective value.
	Last float64 `json:"last"`
	// Armed reports whether Last holds a valid baseline.
	Armed bool `json:"armed"`
}

// Observe folds in one reading and reports whether it triggered.
func (m *Monitor) Observe(f float64) bool {
	if !m.Armed {
		m.Armed = true
		m.Last = f
		return false
	}
	dc := delta(m.Last, f)
	m.Last = f
	return dc > m.Tolerance || dc < -m.Tolerance
}

// Reset arms the monitor with baseline f.
func (m *Monitor) Reset(f float64) {
	m.Last = f
	m.Armed = true
}

// Disarm drops the baseline; the next reading re-arms without
// triggering.
func (m *Monitor) Disarm() {
	m.Last = 0
	m.Armed = false
}

// stallEpochs is the number of consecutive no-change epochs after which
// the multi-parameter cd-tuner and heur1 rotate to the next parameter.
const stallEpochs = 3

// Rotation is the stall-rotation shared by the multi-parameter
// cd-tuner and heur1: after stallEpochs consecutive holds, move the
// active coordinate to the next dimension.
type Rotation struct {
	// Dim is the active coordinate.
	Dim int `json:"dim"`
	// Stalls counts consecutive holding epochs.
	Stalls int `json:"stalls"`
}

// Hold records one holding epoch and reports whether it rotated the
// active coordinate (only with more than one dimension, after
// stallEpochs consecutive holds).
func (r *Rotation) Hold(dims int) bool {
	r.Stalls++
	if dims > 1 && r.Stalls >= stallEpochs {
		r.Stalls = 0
		r.Dim = (r.Dim + 1) % dims
		return true
	}
	return false
}

// Progress resets the stall count after a moving epoch.
func (r *Rotation) Progress() {
	r.Stalls = 0
}

// StaticState is the serializable state of the static strategy.
type StaticState struct {
	// X is the held vector.
	X []int `json:"x"`
}

// StaticStrategy holds the starting parameters forever — the paper's
// non-adaptive `default` baseline.
type StaticStrategy struct {
	cfg Config
	st  StaticState
}

// NewStaticStrategy returns a static strategy holding cfg.Start
// (clamped to the box).
func NewStaticStrategy(cfg Config) *StaticStrategy {
	cfg = cfg.withDefaults()
	return &StaticStrategy{cfg: cfg, st: StaticState{X: cfg.Box.ClampInt(cfg.Start)}}
}

// Name implements Strategy.
func (s *StaticStrategy) Name() string { return "default" }

// Propose implements Strategy.
func (s *StaticStrategy) Propose() ([]int, bool) { return ivec.Clone(s.st.X), false }

// Observe implements Strategy.
func (s *StaticStrategy) Observe(xfer.Report) {}

// Snapshot implements Strategy.
func (s *StaticStrategy) Snapshot() (json.RawMessage, error) { return json.Marshal(s.st) }

// Restore implements Strategy.
func (s *StaticStrategy) Restore(raw json.RawMessage) error {
	var st StaticState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("tuner: static state: %w", err)
	}
	if len(st.X) != s.cfg.Box.Dim() {
		return fmt.Errorf("tuner: static state has %d dims, box has %d", len(st.X), s.cfg.Box.Dim())
	}
	s.st = st
	return nil
}
