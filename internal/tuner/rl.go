package tuner

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"dstune/internal/directsearch"
	"dstune/internal/ivec"
	"dstune/internal/sim"
	"dstune/internal/xfer"
)

// The learned strategies share one context model: the load level the
// transfer is experiencing, quantized from the last epoch's observed
// fitness into factor-2 buckets, with the kernel retransmit signal —
// when the data plane samples TCP_INFO — splitting each bucket into a
// clean and a lossy variant. Context is the whole point: a direct
// search re-discovers the optimum from scratch after every load
// shift, while a learned strategy that has seen a load level before
// jumps straight back to the vector that won there.
const (
	// rlLoadBuckets is the number of factor-2 throughput buckets.
	// Bucket 0 means "no signal yet" (fresh strategy, or a transient
	// zero-throughput epoch); buckets 1..rlLoadBuckets-1 ladder from
	// 2^rlBaseLog2 bytes/s upward.
	rlLoadBuckets = 16
	// rlNumContexts doubles the bucket space with the retransmit
	// flag.
	rlNumContexts = 2 * rlLoadBuckets
	// rlBaseLog2 anchors bucket 1 at 2^20 bytes/s (1 MiB/s); WAN
	// transfers of interest live between there and 2^34.
	rlBaseLog2 = 20

	// rlBanditEps0 is the bandit's initial exploration probability,
	// decayed by per-context visits with half-life rlBanditEpsHalf.
	rlBanditEps0    = 0.08
	rlBanditEpsHalf = 4.0
	// rlQEps0 is rl-q's initial exploration probability; its moves
	// are local, so it explores harder than the bandit and decays by
	// per-state visits with half-life rlQEpsHalf.
	rlQEps0    = 0.25
	rlQEpsHalf = 4.0
	// rlBanditAlpha / rlQAlpha floor the learning rate, turning the
	// sample mean into an exponential recency weight after a few
	// visits so a drifting regime is tracked, not averaged away.
	rlBanditAlpha = 0.3
	rlQAlpha      = 0.5
	// rlQGamma is rl-q's discount: modest, because the immediate
	// reward (the arrived vector's throughput) already carries most
	// of the value in this domain.
	rlQGamma = 0.3
	// rlQOptimistic is the score of an unvisited (state, action)
	// cell: an upper bound on the normalized immediate reward, so a
	// fresh state tries its actions systematically before settling.
	rlQOptimistic = 1.0
)

// rlContext quantizes an epoch fitness into a context bucket. Zero or
// non-finite fitness maps to bucket 0 ("no signal"); lossy shifts the
// bucket into the retransmit half of the context space.
func rlContext(fit float64, lossy bool) int {
	b := 0
	if fit > 0 && !math.IsInf(fit, 0) && !math.IsNaN(fit) {
		l := int(math.Floor(math.Log2(fit))) - rlBaseLog2
		if l < 0 {
			l = 0
		}
		if l > rlLoadBuckets-2 {
			l = rlLoadBuckets - 2
		}
		b = l + 1
	}
	if lossy {
		b += rlLoadBuckets
	}
	return b
}

// rlLossy reports whether the epoch's kernel sample saw retransmits —
// the optional congestion signal. Reports from the Sim fabric carry no
// kernel sample, so the flag simply stays false there.
func rlLossy(rep xfer.Report) bool {
	return rep.Kernel != nil && rep.Kernel.RetransDelta > 0
}

// rlFinite reports whether f is an ordinary float (no NaN, no ±Inf) —
// the invariant every restored value estimate must satisfy.
func rlFinite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// --- rl-bandit -------------------------------------------------------

// rlArms builds the bandit's action grid: per dimension a geometric
// ladder of doublings spanning the box (both endpoints always
// included), crossed over dimensions, plus the clamped start vector as
// an extra arm when it falls off the ladder. The grid is a pure
// function of the configuration, so a resume rebuilds the identical
// arm indexing.
func rlArms(box directsearch.Box, start []int) [][]int {
	rails := make([][]int, box.Dim())
	for d := 0; d < box.Dim(); d++ {
		lo, hi := box.Lo(d), box.Hi(d)
		rail := []int{lo}
		for v := lo * 2; v > lo && v < hi; v *= 2 {
			rail = append(rail, v)
		}
		if hi > lo {
			rail = append(rail, hi)
		}
		rails[d] = rail
	}
	arms := [][]int{nil}
	for _, rail := range rails {
		next := make([][]int, 0, len(arms)*len(rail))
		for _, a := range arms {
			for _, v := range rail {
				na := make([]int, len(a), len(a)+1)
				copy(na, a)
				next = append(next, append(na, v))
			}
		}
		arms = next
	}
	if rlArmIndex(arms, start) < 0 {
		arms = append(arms, ivec.Clone(start))
	}
	return arms
}

// rlArmIndex returns the index of x in arms, or -1.
func rlArmIndex(arms [][]int, x []int) int {
	for i, a := range arms {
		if ivec.Equal(a, x) {
			return i
		}
	}
	return -1
}

// RLBanditState is the complete serializable state of RLBanditStrategy:
// the value tables, visit counts, the arm in flight, and the RNG stream
// position. Everything the policy learned is in here, so a resumed run
// keeps its experience.
type RLBanditState struct {
	// Step counts committed actions (equals epochs observed).
	Step int `json:"step"`
	// Ctx is the context bucket Pending was chosen in.
	Ctx int `json:"ctx"`
	// Pending is the arm index currently in flight.
	Pending int `json:"pending"`
	// Q is the per-context per-arm reward estimate in bytes/second.
	Q [][]float64 `json:"q"`
	// N is the per-context per-arm visit count.
	N [][]int `json:"n"`
	// G is the context-free per-arm reward estimate — the prior an
	// unvisited (context, arm) cell falls back to, which is what lets
	// a freshly entered context start from the globally best arm
	// instead of from scratch.
	G []float64 `json:"g"`
	// GN is the context-free per-arm visit count.
	GN []int `json:"gn"`
	// RNG is the exploration stream position (binary, JSON-encoded as
	// base64).
	RNG []byte `json:"rng,omitempty"`
}

// RLBanditStrategy is a contextual ε-greedy bandit over a geometric
// (nc, np[, pp]) arm grid. It opens with one systematic sweep of the
// grid (every arm sampled once, starting from the configured start
// vector), then plays ε-greedy per load-context bucket: greedy picks
// the best arm known for the current context, falling back to the
// context-free estimate for arms the context hasn't tried. There is no
// ε-monitor — a load shift changes the context bucket, and the policy
// switches arms on the next epoch without re-searching.
type RLBanditStrategy struct {
	cfg   Config
	arms  [][]int
	start int // index of the clamped start arm; base of the opening sweep
	rng   *sim.RNG
	st    RLBanditState
}

// NewRLBandit returns an rl-bandit strategy over cfg's box. The
// clamped cfg.Start is the first arm played — on a warm start the
// history-predicted vector lands there, seeding the value table with
// the prediction's reward first.
func NewRLBandit(cfg Config) *RLBanditStrategy {
	cfg = cfg.withDefaults()
	start := cfg.Box.ClampInt(cfg.Start)
	arms := rlArms(cfg.Box, start)
	s := &RLBanditStrategy{
		cfg:   cfg,
		arms:  arms,
		start: rlArmIndex(arms, start),
		rng:   sim.NewRNG(cfg.Seed),
	}
	s.st = RLBanditState{
		Pending: s.start,
		Q:       rlZeroTable(len(arms)),
		N:       rlZeroCounts(len(arms)),
		G:       make([]float64, len(arms)),
		GN:      make([]int, len(arms)),
	}
	cfg.Obs.RLAction(0, 0, s.arms[s.start], 0, rlBanditEps0, 0, true)
	return s
}

// rlZeroTable allocates the dense [context][arm] value table.
func rlZeroTable(arms int) [][]float64 {
	q := make([][]float64, rlNumContexts)
	for c := range q {
		q[c] = make([]float64, arms)
	}
	return q
}

// rlZeroCounts allocates the dense [context][arm] visit table.
func rlZeroCounts(arms int) [][]int {
	n := make([][]int, rlNumContexts)
	for c := range n {
		n[c] = make([]int, arms)
	}
	return n
}

// Name implements Strategy.
func (s *RLBanditStrategy) Name() string { return "rl-bandit" }

// Propose implements Strategy.
func (s *RLBanditStrategy) Propose() ([]int, bool) {
	return ivec.Clone(s.arms[s.st.Pending]), false
}

// Observe implements Strategy: credit the arm in flight with the
// epoch's fitness (in the context it was chosen for, and in the
// context-free prior), recompute the context from the fresh reading,
// and commit the next arm.
func (s *RLBanditStrategy) Observe(rep xfer.Report) {
	f := fitnessOf(s.cfg, rep)
	a := s.st.Pending
	rlCredit(&s.st.Q[s.st.Ctx][a], &s.st.N[s.st.Ctx][a], f, rlBanditAlpha)
	rlCredit(&s.st.G[a], &s.st.GN[a], f, rlBanditAlpha)
	s.st.Step++
	ctx := rlContext(f, rlLossy(rep))
	next, eps, q, explore := s.choose(ctx)
	s.st.Ctx = ctx
	s.st.Pending = next
	s.cfg.Obs.RLAction(rep.End, s.st.Step, s.arms[next], ctx, eps, q, explore)
}

// rlCredit folds reward r into the estimate with a floored learning
// rate: a plain mean for the first visits, an exponential recency
// weight after.
func rlCredit(q *float64, n *int, r, floor float64) {
	*n++
	a := 1.0 / float64(*n)
	if a < floor {
		a = floor
	}
	*q += a * (r - *q)
}

// eps is the context's current exploration probability.
func (s *RLBanditStrategy) eps(ctx int) float64 {
	visits := 0
	for _, n := range s.st.N[ctx] {
		visits += n
	}
	return rlBanditEps0 / (1 + float64(visits)/rlBanditEpsHalf)
}

// score is the greedy value of an arm in a context: the contextual
// estimate when the context has tried the arm, the context-free prior
// otherwise.
func (s *RLBanditStrategy) score(ctx, arm int) float64 {
	if s.st.N[ctx][arm] > 0 {
		return s.st.Q[ctx][arm]
	}
	return s.st.G[arm]
}

// choose commits the next arm for context ctx: the opening sweep plays
// every arm once in ring order from the start arm; after that it is
// ε-greedy with the decayed context ε.
func (s *RLBanditStrategy) choose(ctx int) (arm int, eps, q float64, explore bool) {
	eps = s.eps(ctx)
	if s.st.Step < len(s.arms) {
		arm = (s.start + s.st.Step) % len(s.arms)
		return arm, eps, s.score(ctx, arm), true
	}
	if s.rng.Bernoulli(eps) {
		arm = s.rng.IntN(len(s.arms))
		return arm, eps, s.score(ctx, arm), true
	}
	best, bq := 0, math.Inf(-1)
	for a := range s.arms {
		if sc := s.score(ctx, a); sc > bq {
			best, bq = a, sc
		}
	}
	return best, eps, bq, false
}

// Snapshot implements Strategy.
func (s *RLBanditStrategy) Snapshot() (json.RawMessage, error) {
	st := s.st
	rng, err := s.rng.MarshalBinary()
	if err != nil {
		return nil, err
	}
	st.RNG = rng
	return json.Marshal(st)
}

// Restore implements Strategy. Hostile state — wrong table shapes,
// non-finite value estimates, negative visit counts, an out-of-grid
// pending arm — is rejected with an error, never a panic; an entirely
// empty state restores as a fresh strategy.
func (s *RLBanditStrategy) Restore(raw json.RawMessage) error {
	var st RLBanditState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("tuner: rl-bandit state: %w", err)
	}
	nArms := len(s.arms)
	if st.Step < 0 {
		return fmt.Errorf("tuner: rl-bandit state has negative step %d", st.Step)
	}
	if st.Pending < 0 || st.Pending >= nArms {
		return fmt.Errorf("tuner: rl-bandit state pending arm %d outside grid of %d", st.Pending, nArms)
	}
	if st.Ctx < 0 || st.Ctx >= rlNumContexts {
		return fmt.Errorf("tuner: rl-bandit state context %d outside [0,%d)", st.Ctx, rlNumContexts)
	}
	if st.Q == nil && st.N == nil && st.G == nil && st.GN == nil {
		st.Q = rlZeroTable(nArms)
		st.N = rlZeroCounts(nArms)
		st.G = make([]float64, nArms)
		st.GN = make([]int, nArms)
	} else {
		if len(st.Q) != rlNumContexts || len(st.N) != rlNumContexts {
			return fmt.Errorf("tuner: rl-bandit state has %d/%d contexts, want %d", len(st.Q), len(st.N), rlNumContexts)
		}
		for c := range st.Q {
			if len(st.Q[c]) != nArms || len(st.N[c]) != nArms {
				return fmt.Errorf("tuner: rl-bandit state context %d has %d/%d arms, grid has %d", c, len(st.Q[c]), len(st.N[c]), nArms)
			}
			for a := range st.Q[c] {
				if !rlFinite(st.Q[c][a]) {
					return fmt.Errorf("tuner: rl-bandit state q[%d][%d] is not finite", c, a)
				}
				if st.N[c][a] < 0 {
					return fmt.Errorf("tuner: rl-bandit state n[%d][%d] is negative", c, a)
				}
			}
		}
		if len(st.G) != nArms || len(st.GN) != nArms {
			return fmt.Errorf("tuner: rl-bandit state prior has %d/%d arms, grid has %d", len(st.G), len(st.GN), nArms)
		}
		for a := range st.G {
			if !rlFinite(st.G[a]) {
				return fmt.Errorf("tuner: rl-bandit state g[%d] is not finite", a)
			}
			if st.GN[a] < 0 {
				return fmt.Errorf("tuner: rl-bandit state gn[%d] is negative", a)
			}
		}
	}
	rng := sim.NewRNG(s.cfg.Seed)
	if len(st.RNG) > 0 {
		if err := rng.UnmarshalBinary(st.RNG); err != nil {
			return fmt.Errorf("tuner: rl-bandit state rng: %w", err)
		}
	}
	s.st = st
	s.rng = rng
	return nil
}

// --- rl-q ------------------------------------------------------------

// RLQEntry is one (context, vector) state's row in the sparse Q-table.
type RLQEntry struct {
	// Key identifies the state: "<context>|<x0>,<x1>,...".
	Key string `json:"key"`
	// Q holds the per-action value estimates (normalized reward
	// units).
	Q []float64 `json:"q"`
	// N holds the per-action visit counts.
	N []int `json:"n"`
}

// RLQState is the complete serializable state of RLQStrategy.
type RLQState struct {
	// Step counts committed actions (equals epochs observed).
	Step int `json:"step"`
	// Ctx is the context bucket of the state the pending action
	// departs from.
	Ctx int `json:"ctx"`
	// X is the vector component of that state.
	X []int `json:"x"`
	// Pending is the index of the action in flight.
	Pending int `json:"pending"`
	// FMax is the running fitness maximum, the reward normalizer.
	FMax float64 `json:"f_max"`
	// Table is the sparse Q-table, sorted by Key so snapshots are
	// canonical.
	Table []RLQEntry `json:"table"`
	// RNG is the exploration stream position (binary, JSON-encoded as
	// base64).
	RNG []byte `json:"rng,omitempty"`
}

// RLQStrategy is tabular Q-learning over state = (load-context bucket,
// current vector) and action = compass move ∪ stay: per dimension a
// coarse step of Config.Lambda and a fine step of 1, each in both
// directions, all clamped to the box. Rewards are throughput
// normalized by the running maximum; unvisited actions score an
// optimistic constant so every newly entered state tries its moves
// systematically, and ε decays with per-state visits. Like rl-bandit
// it carries no ε-monitor: a load shift re-keys the state and the
// policy re-plans from whatever that state already learned.
type RLQStrategy struct {
	cfg    Config
	coarse int
	rng    *sim.RNG
	st     RLQState
	px     []int // applyMove(st.X, st.Pending), cached
}

// NewRLQ returns an rl-q strategy over cfg's box, starting at the
// clamped cfg.Start — on a warm start the history-predicted vector
// becomes the initial state, so its neighborhood is valued first.
func NewRLQ(cfg Config) *RLQStrategy {
	cfg = cfg.withDefaults()
	coarse := 1
	if !math.IsNaN(cfg.Lambda) && int(cfg.Lambda) > 1 {
		coarse = int(cfg.Lambda)
	}
	s := &RLQStrategy{cfg: cfg, coarse: coarse, rng: sim.NewRNG(cfg.Seed)}
	s.st = RLQState{X: cfg.Box.ClampInt(cfg.Start), Pending: 0}
	s.px = s.applyMove(s.st.X, 0)
	cfg.Obs.RLAction(0, 0, s.px, 0, rlQEps0, rlQOptimistic, true)
	return s
}

// numActions is the size of the move set: stay plus four moves per
// dimension.
func (s *RLQStrategy) numActions() int { return 1 + 4*s.cfg.Box.Dim() }

// applyMove returns the clamped result of applying action a to x.
// Action 0 is stay; action 1+4d+k moves dimension d by +coarse,
// -coarse, +1, -1 for k = 0..3.
func (s *RLQStrategy) applyMove(x []int, a int) []int {
	nx := ivec.Clone(x)
	if a > 0 {
		d := (a - 1) / 4
		switch (a - 1) % 4 {
		case 0:
			nx[d] += s.coarse
		case 1:
			nx[d] -= s.coarse
		case 2:
			nx[d]++
		case 3:
			nx[d]--
		}
	}
	return s.cfg.Box.ClampInt(nx)
}

// rlQKey builds the state key for a context bucket and vector.
func rlQKey(ctx int, x []int) string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(ctx))
	b.WriteByte('|')
	for i, v := range x {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

// find returns the table index holding key, or -1.
func (s *RLQStrategy) find(key string) int {
	i := sort.Search(len(s.st.Table), func(i int) bool { return s.st.Table[i].Key >= key })
	if i < len(s.st.Table) && s.st.Table[i].Key == key {
		return i
	}
	return -1
}

// entry returns the table row for key, inserting a zero row in sorted
// position on first touch.
func (s *RLQStrategy) entry(key string) *RLQEntry {
	i := sort.Search(len(s.st.Table), func(i int) bool { return s.st.Table[i].Key >= key })
	if i < len(s.st.Table) && s.st.Table[i].Key == key {
		return &s.st.Table[i]
	}
	s.st.Table = append(s.st.Table, RLQEntry{})
	copy(s.st.Table[i+1:], s.st.Table[i:])
	s.st.Table[i] = RLQEntry{Key: key, Q: make([]float64, s.numActions()), N: make([]int, s.numActions())}
	return &s.st.Table[i]
}

// scoreAt is the greedy value of action a in the table row at index i
// (i < 0 means the state is unvisited): optimistic for unvisited
// actions.
func (s *RLQStrategy) scoreAt(i, a int) float64 {
	if i < 0 || s.st.Table[i].N[a] == 0 {
		return rlQOptimistic
	}
	return s.st.Table[i].Q[a]
}

// maxScore is the greedy value of a state: the max action score.
func (s *RLQStrategy) maxScore(key string) float64 {
	i := s.find(key)
	best := math.Inf(-1)
	for a := 0; a < s.numActions(); a++ {
		if sc := s.scoreAt(i, a); sc > best {
			best = sc
		}
	}
	return best
}

// Name implements Strategy.
func (s *RLQStrategy) Name() string { return "rl-q" }

// Propose implements Strategy.
func (s *RLQStrategy) Propose() ([]int, bool) { return ivec.Clone(s.px), false }

// Observe implements Strategy: Q-update the departed state's pending
// action toward reward + γ·max over the arrived state, move the state
// forward, and commit the next action.
func (s *RLQStrategy) Observe(rep xfer.Report) {
	f := fitnessOf(s.cfg, rep)
	if f > s.st.FMax {
		s.st.FMax = f
	}
	r := 0.0
	if s.st.FMax > 0 {
		r = f / s.st.FMax
	}
	arrived := s.px
	ctx2 := rlContext(f, rlLossy(rep))
	target := r + rlQGamma*s.maxScore(rlQKey(ctx2, arrived))
	e := s.entry(rlQKey(s.st.Ctx, s.st.X))
	rlCredit(&e.Q[s.st.Pending], &e.N[s.st.Pending], target, rlQAlpha)

	s.st.Step++
	s.st.Ctx = ctx2
	s.st.X = arrived
	next, eps, q, explore := s.choose(ctx2, arrived)
	s.st.Pending = next
	s.px = s.applyMove(arrived, next)
	s.cfg.Obs.RLAction(rep.End, s.st.Step, s.px, ctx2, eps, q, explore)
}

// choose commits the next action for the state (ctx, x): ε-greedy with
// per-state visit decay, unvisited actions optimistic, greedy ties
// broken by lowest action index (stay, then coarse moves, then fine).
func (s *RLQStrategy) choose(ctx int, x []int) (action int, eps, q float64, explore bool) {
	i := s.find(rlQKey(ctx, x))
	visits := 0
	if i >= 0 {
		for _, n := range s.st.Table[i].N {
			visits += n
		}
	}
	eps = rlQEps0 / (1 + float64(visits)/rlQEpsHalf)
	if s.rng.Bernoulli(eps) {
		action = s.rng.IntN(s.numActions())
		return action, eps, s.scoreAt(i, action), true
	}
	best, bq := 0, math.Inf(-1)
	for a := 0; a < s.numActions(); a++ {
		if sc := s.scoreAt(i, a); sc > bq {
			best, bq = a, sc
		}
	}
	return best, eps, bq, false
}

// Snapshot implements Strategy.
func (s *RLQStrategy) Snapshot() (json.RawMessage, error) {
	st := s.st
	rng, err := s.rng.MarshalBinary()
	if err != nil {
		return nil, err
	}
	st.RNG = rng
	return json.Marshal(st)
}

// Restore implements Strategy. Hostile state — malformed keys, rows of
// the wrong width, non-finite value estimates, an out-of-range pending
// action — is rejected with an error, never a panic; vectors that
// drifted outside the box are clamped back in.
func (s *RLQStrategy) Restore(raw json.RawMessage) error {
	var st RLQState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("tuner: rl-q state: %w", err)
	}
	dim := s.cfg.Box.Dim()
	if st.Step < 0 {
		return fmt.Errorf("tuner: rl-q state has negative step %d", st.Step)
	}
	if st.Pending < 0 || st.Pending >= s.numActions() {
		return fmt.Errorf("tuner: rl-q state pending action %d outside move set of %d", st.Pending, s.numActions())
	}
	if st.Ctx < 0 || st.Ctx >= rlNumContexts {
		return fmt.Errorf("tuner: rl-q state context %d outside [0,%d)", st.Ctx, rlNumContexts)
	}
	if len(st.X) == 0 {
		st.X = s.cfg.Box.ClampInt(s.cfg.Start)
	} else if len(st.X) != dim {
		return fmt.Errorf("tuner: rl-q state vector has %d dims, box has %d", len(st.X), dim)
	} else {
		st.X = s.cfg.Box.ClampInt(st.X)
	}
	if !rlFinite(st.FMax) || st.FMax < 0 {
		return fmt.Errorf("tuner: rl-q state f_max %v invalid", st.FMax)
	}
	seen := make(map[string]bool, len(st.Table))
	for i := range st.Table {
		e := &st.Table[i]
		ctx, _, err := rlQParseKey(e.Key, dim)
		if err != nil {
			return fmt.Errorf("tuner: rl-q state table[%d]: %w", i, err)
		}
		if ctx < 0 || ctx >= rlNumContexts {
			return fmt.Errorf("tuner: rl-q state table[%d] context %d outside [0,%d)", i, ctx, rlNumContexts)
		}
		if seen[e.Key] {
			return fmt.Errorf("tuner: rl-q state table has duplicate key %q", e.Key)
		}
		seen[e.Key] = true
		if len(e.Q) != s.numActions() || len(e.N) != s.numActions() {
			return fmt.Errorf("tuner: rl-q state table[%d] has %d/%d actions, move set has %d", i, len(e.Q), len(e.N), s.numActions())
		}
		for a := range e.Q {
			if !rlFinite(e.Q[a]) {
				return fmt.Errorf("tuner: rl-q state table[%d] q[%d] is not finite", i, a)
			}
			if e.N[a] < 0 {
				return fmt.Errorf("tuner: rl-q state table[%d] n[%d] is negative", i, a)
			}
		}
	}
	sort.Slice(st.Table, func(i, j int) bool { return st.Table[i].Key < st.Table[j].Key })
	rng := sim.NewRNG(s.cfg.Seed)
	if len(st.RNG) > 0 {
		if err := rng.UnmarshalBinary(st.RNG); err != nil {
			return fmt.Errorf("tuner: rl-q state rng: %w", err)
		}
	}
	s.st = st
	s.rng = rng
	s.px = s.applyMove(s.st.X, s.st.Pending)
	return nil
}

// rlQParseKey parses and validates a state key against the box
// dimensionality, returning the context bucket and vector.
func rlQParseKey(key string, dim int) (int, []int, error) {
	ctxStr, vecStr, ok := strings.Cut(key, "|")
	if !ok {
		return 0, nil, fmt.Errorf("key %q has no context separator", key)
	}
	ctx, err := strconv.Atoi(ctxStr)
	if err != nil {
		return 0, nil, fmt.Errorf("key %q context: %v", key, err)
	}
	parts := strings.Split(vecStr, ",")
	if len(parts) != dim {
		return 0, nil, fmt.Errorf("key %q has %d dims, box has %d", key, len(parts), dim)
	}
	x := make([]int, dim)
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return 0, nil, fmt.Errorf("key %q component %d: %v", key, i, err)
		}
		x[i] = v
	}
	return ctx, x, nil
}
