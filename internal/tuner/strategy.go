package tuner

import (
	"encoding/json"
	"fmt"
	"strings"

	"dstune/internal/ivec"
	"dstune/internal/xfer"
)

// Strategy is a tuner's decision kernel as an explicit state machine:
// a pure function of the observed epoch reports. Propose returns the
// parameter vector for the next control epoch; Observe folds in the
// epoch's report and advances the state. The epoch engine behind
// Run, Fleet and SessionRuntime owns everything else — the loop,
// pacing, budget, transient-failure counting, and checkpointing — so
// one process can step many strategies concurrently.
//
// Protocol: Propose, run the epoch, Observe, repeat. Propose is
// idempotent — calling it again before Observe returns the same
// vector — and must be called at least once before the first Observe.
// A strategy's state after k Observe calls is a deterministic function
// of its configuration and the k observed reports, which is what lets
// a resume rebuild it by replaying a checkpoint's recorded epochs into
// a strategy built under the same configuration.
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
	// Snapshot returns the strategy's own state record, for
	// inspection; kept for bench/'s traced strategy.
	Snapshot() (json.RawMessage, error)
}

// strategyRow is one line of the registry.
type strategyRow struct {
	name string
	// build constructs the strategy from cfg, x0 = cfg.Start.
	build func(cfg Config) Strategy
	// keepsAlive marks a strategy whose simulated transfer keeps its
	// processes alive between epochs (xfer.RestartOnChange), as the real
	// Globus service does; every adaptive tuner restarts them per epoch,
	// as the paper's wrappers do.
	keepsAlive bool
	// readsKernel marks a strategy that consults Report.Kernel.
	readsKernel bool
}

// strategies is the registry: one row per strategy name, in
// documentation order, and the only place a name is spelled. Adding a
// strategy is its file plus its row here: NewStrategy, StrategyNames,
// KnownStrategy, RestartPolicyFor, ReadsKernel and the binaries' -tuner
// usage are all reads of this table, and STRATEGIES.md keeps one
// section per row (TestStrategyDocCoverage).
var strategies = []strategyRow{
	{name: "default", build: from(NewStaticStrategy), keepsAlive: true},
	{name: "cd-tuner", build: from(NewCDStrategy)},
	{name: "cs-tuner", build: from(NewCSStrategy)},
	{name: "nm-tuner", build: from(NewNMStrategy)},
	{name: "heur1", build: from(NewHeur1Strategy)},
	{name: "heur2", build: from(NewHeur2Strategy)},
	{name: "model", build: from(NewModelStrategy)},
	{name: "rl-bandit", build: from(NewRLBandit), readsKernel: true},
}

// from makes a registry row's build of a constructor.
func from[S Strategy](ctor func(Config) S) func(Config) Strategy {
	return func(cfg Config) Strategy { return ctor(cfg) }
}

// lookup finds name's registry row; nil for an unknown name.
func lookup(name string) *strategyRow {
	for i := range strategies {
		if strategies[i].name == name {
			return &strategies[i]
		}
	}
	return nil
}

// NewStrategy builds the named strategy — a StrategyNames row — from
// cfg, starting at cfg.Start. It consults no history store and no
// checkpoint: ResolveStrategy is the door that does.
func NewStrategy(name string, cfg Config) (Strategy, error) {
	row := lookup(name)
	if row == nil {
		return nil, fmt.Errorf("tuner: unknown strategy %q", name)
	}
	return row.build(cfg), nil
}

// warmStart asks the run's knowledge plane for its starting vector: the
// best-known vector recorded in cfg.History under cfg.HistoryKey,
// clamped to the box. A store with no record under the key, or one of
// another dimensionality, is a miss and returns nil, as does a Config
// without a store. Either outcome of a consultation is announced
// through cfg.Obs as a WarmStart event and counted.
func warmStart(cfg Config) []int {
	if cfg.History == nil {
		return nil
	}
	var pred []int
	if e, ok := cfg.History.Lookup(cfg.HistoryKey); ok && len(e.X) == cfg.Box.Dim() {
		pred = cfg.Box.ClampInt(e.X)
	}
	cfg.Obs.WarmStart(0, pred, pred != nil)
	return pred
}

// ResolveStrategy builds the strategy a session runs from the tuner
// name its owner was given, and returns beside it the starting vector
// the session adopted in place of cfg.Start — nil for a cold session.
// It is the one place a session's owner decides between the cold, the
// warm-started and the resumed form:
//
//   - cfg.Resume set: the strategy the checkpoint names, built under the
//     checkpoint's seed (so its RNG is the one the recorded run drew
//     from) and, when the recorded run was warm-started, from the
//     checkpoint's start. Neither name nor store is consulted.
//   - cfg.History set: a warmStart hit replaces cfg.Start — for every
//     strategy alike.
//   - otherwise the plain named strategy.
//
// The adopted start is construction input exactly like the seed —
// strategies derive unserialized structure from x0 (the restart
// origin, the bandit's arm grid) — so the caller hands it to the engine
// (Config.Session), whose checkpoints record it.
func ResolveStrategy(name string, cfg Config) (Strategy, []int, error) {
	var start []int
	if ck := cfg.Resume; ck != nil {
		if ck.Start != nil && len(ck.Start) != cfg.Box.Dim() {
			return nil, nil, fmt.Errorf("tuner: checkpoint start %v has %d dims, box has %d", ck.Start, len(ck.Start), cfg.Box.Dim())
		}
		name, cfg.Seed, start = ck.Tuner, ck.Seed, ck.Start
	} else {
		start = warmStart(cfg)
	}
	if start != nil {
		cfg.Start = start
	}
	s, err := NewStrategy(name, cfg)
	return s, start, err
}

// RestartPolicyFor returns the restart policy a simulated transfer
// runs under for the named strategy: the registry's keepsAlive column.
// The binaries and the figure harnesses all ask here, so a baseline is
// the same baseline wherever it is run.
func RestartPolicyFor(name string) xfer.RestartPolicy {
	if row := lookup(name); row != nil && row.keepsAlive {
		return xfer.RestartOnChange
	}
	return xfer.RestartEveryEpoch
}

// ReadsKernel reports whether the named strategy consults
// Report.Kernel: the registry's readsKernel column. Whoever builds a
// socket transfer asks here and switches the TCP_INFO sampler on for
// such a strategy, so it is not inert at a door that has no flag for
// the sampler.
func ReadsKernel(name string) bool {
	row := lookup(name)
	return row != nil && row.readsKernel
}

// StrategyNames lists every registry name in documentation order.
func StrategyNames() []string {
	names := make([]string, len(strategies))
	for i, row := range strategies {
		names[i] = row.name
	}
	return names
}

// StrategyUsage is the list of accepted names a usage string prints:
// the registry's.
func StrategyUsage() string {
	return strings.Join(StrategyNames(), ", ")
}

// KnownStrategy reports whether NewStrategy accepts name.
func KnownStrategy(name string) bool {
	return lookup(name) != nil
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
