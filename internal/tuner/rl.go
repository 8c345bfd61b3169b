package tuner

import (
	"encoding/json"
	"math"

	"dstune/internal/directsearch"
	"dstune/internal/ivec"
	"dstune/internal/sim"
	"dstune/internal/xfer"
)

// rl-bandit's context model: the load level the transfer is
// experiencing, quantized from the last epoch's observed fitness into
// factor-2 buckets, with the kernel retransmit signal — when the data
// plane samples TCP_INFO — splitting each bucket into a clean and a
// lossy variant. Context is the whole point: a direct search
// re-discovers the optimum from scratch after every load shift, while
// a learned strategy that has seen a load level before jumps straight
// back to the vector that won there.
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
	// rlBanditAlpha floors the learning rate, turning the sample mean
	// into an exponential recency weight after a few visits so a
	// drifting regime is tracked, not averaged away.
	rlBanditAlpha = 0.3
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

// RLBanditState is what RLBanditStrategy has learned: the value
// tables, visit counts and the arm in flight. Snapshot marshals it, for
// inspection; a resumed run relearns it by replaying the epoch log.
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
	rlCredit(&s.st.Q[s.st.Ctx][a], &s.st.N[s.st.Ctx][a], f)
	rlCredit(&s.st.G[a], &s.st.GN[a], f)
	s.st.Step++
	ctx := rlContext(f, rlLossy(rep))
	next, eps, q, explore := s.choose(ctx)
	s.st.Ctx = ctx
	s.st.Pending = next
	s.cfg.Obs.RLAction(rep.End, s.st.Step, s.arms[next], ctx, eps, q, explore)
}

// rlCredit folds reward r into the estimate with a learning rate
// floored at rlBanditAlpha: a plain mean for the first visits, an
// exponential recency weight after.
func rlCredit(q *float64, n *int, r float64) {
	*n++
	a := 1.0 / float64(*n)
	if a < rlBanditAlpha {
		a = rlBanditAlpha
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
func (s *RLBanditStrategy) Snapshot() (json.RawMessage, error) { return json.Marshal(s.st) }
