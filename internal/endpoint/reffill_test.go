package endpoint

import (
	"math"
	"math/rand/v2"
	"os"
	"slices"
	"sort"
	"strconv"
	"testing"
)

// refAllocate is Allocate as it was before the water-level search: the
// same round, its demands filled in the order a sort.Sort of their
// saturation levels leaves them (refFill), its caps summed in process
// order for the NIC. It is kept to hold the search to.
func refAllocate(h *Host, procs []Demand) []float64 {
	cfg := h.cfg
	n := len(procs)
	caps := make([]float64, n)
	if n == 0 {
		return caps
	}
	totalThreads := h.computeJobs * cfg.Cores
	for _, d := range procs {
		totalThreads += max(d.Threads, 1)
	}
	eff := h.Efficiency(totalThreads)
	wf := refFill{}
	overheads := make([]float64, n)
	for i, d := range procs {
		overheads[i] = streamOverhead * float64(max(d.Threads, 1))
		rate := d.Rate
		if rate < 0 {
			rate = 0
		}
		wf.d = append(wf.d, min(rate/cfg.CorePumpRate+overheads[i], 1))
		wf.w = append(wf.w, 1)
	}
	for j := 0; j < h.computeJobs; j++ {
		wf.d = append(wf.d, float64(cfg.Cores))
		wf.w = append(wf.w, computeWeight)
	}
	alloc := wf.run(float64(cfg.Cores))
	total := 0.0
	for i := range procs {
		caps[i] = max((alloc[i]-overheads[i])*cfg.CorePumpRate*eff, 0)
		total += caps[i]
	}
	if cfg.NICRate > 0 && total > cfg.NICRate {
		scale := cfg.NICRate / total
		for i := range caps {
			caps[i] *= scale
		}
	}
	return caps
}

// refFill is the sorted water-fill: the demands d with weights w in
// ascending order of d/w, each given min(d, w·level) where level is the
// capacity left over the weight left.
type refFill struct {
	d, w, sat []float64
	idx       []int
}

func (wf *refFill) Len() int           { return len(wf.idx) }
func (wf *refFill) Less(a, b int) bool { return wf.sat[wf.idx[a]] < wf.sat[wf.idx[b]] }
func (wf *refFill) Swap(a, b int)      { wf.idx[a], wf.idx[b] = wf.idx[b], wf.idx[a] }

func (wf *refFill) run(c float64) []float64 {
	d, w := wf.d, wf.w
	alloc := make([]float64, len(d))
	wf.sat = make([]float64, len(d))
	wf.idx = make([]int, len(d))
	weightSum := 0.0
	for i := range d {
		wf.sat[i] = d[i] / w[i]
		wf.idx[i] = i
		weightSum += w[i]
	}
	sort.Sort(wf)
	remaining := c
	for _, i := range wf.idx {
		if weightSum <= 0 || remaining <= 0 {
			break
		}
		level := remaining / weightSum
		if d[i] <= w[i]*level {
			alloc[i] = d[i]
		} else {
			alloc[i] = w[i] * level
		}
		remaining -= alloc[i]
		weightSum -= w[i]
	}
	return alloc
}

// equivRounds is how many rounds TestAllocateMatchesReference runs: a
// thousand per NETEM_EQUIV_SEEDS, the simulator's long-form setting, when
// it is set (CI's 1000 runs 10⁶), and otherwise twenty thousand, or four
// thousand under the race detector: the rounds start no goroutine, so
// -race repeats what the plain run checks.
func equivRounds() int {
	if n, err := strconv.Atoi(os.Getenv("NETEM_EQUIV_SEEDS")); err == nil && n > 1 {
		return 1000 * n
	}
	if raceEnabled {
		return 4000
	}
	return 20000
}

// randomRound draws a host and a round of demands: 1–512 processes,
// 0–128 compute jobs, 1–32 cores, a NIC that is absent, slack or
// binding, and demands that tie at the one-core cap, tie below it, are
// zero, negative or fresh, with 0–64 threads and now and then more than
// a core's worth of stream overhead. One round in seven, at random, is a
// ladder.
func randomRound(rng *rand.Rand) (*Host, []Demand) {
	cfg := Config{Cores: 1 + rng.IntN(32), CorePumpRate: 1.3e9}
	if rng.IntN(2) == 0 {
		cfg.CorePumpRate = 1e8 * math.Pow(100, rng.Float64())
	}
	if rng.IntN(2) == 0 {
		cfg.NICRate = float64(cfg.Cores) * cfg.CorePumpRate * (0.05 + 1.2*rng.Float64())
	}
	h := New(cfg)
	h.SetComputeJobs([]int{0, 0, 16, 64, rng.IntN(129)}[rng.IntN(5)])
	if rng.IntN(7) == 0 {
		return h, ladder(8<<rng.IntN(7), cfg.Cores, cfg.CorePumpRate)
	}
	n := 1 + rng.IntN([]int{8, 64, 512}[rng.IntN(3)])
	palette := []float64{10e6, 0.3 * cfg.CorePumpRate, 0.01 * cfg.CorePumpRate}
	procs := make([]Demand, n)
	for i := range procs {
		d := Demand{Threads: rng.IntN(65)}
		if rng.IntN(50) == 0 {
			d.Threads = 1000 + rng.IntN(1000)
		}
		switch rng.IntN(6) {
		case 0:
			d.Rate = cfg.CorePumpRate * (1 + rng.Float64()) // at the one-core cap
		case 1:
			d.Rate = palette[rng.IntN(len(palette))]
		case 2:
			d.Rate = []float64{0, -5e6}[rng.IntN(2)]
		case 3:
			d.Rate = 1e3 * rng.Float64()
		default:
			d.Rate = 1.2 * cfg.CorePumpRate * rng.Float64()
		}
		procs[i] = d
	}
	return h, procs
}

// ladder returns n single-thread demands on a host of cores cores and no
// compute jobs that climb the water level a quarter at a time: each pass
// of the level search saturates about a quarter of the demands still
// above the level, so the search runs past its ⌊log₂ n⌋ + 1 passes and
// sorts the rest. The last eight demand a whole core each.
func ladder(n, cores int, pump float64) []Demand {
	procs := make([]Demand, 0, n)
	rem, w := float64(cores), n
	level := rem / float64(w)
	lo := level / 2
	for w > 8 {
		m := max(w/4, 1)
		for j := 1; j <= m; j++ {
			d := lo + (level-lo)*float64(j)/float64(m+1)
			rem -= d
			procs = append(procs, Demand{Threads: 1, Rate: (d - streamOverhead) * pump})
		}
		w -= m
		lo, level = level, rem/float64(w)
	}
	for len(procs) < n {
		procs = append(procs, Demand{Threads: 1, Rate: pump})
	}
	return procs
}

// TestAllocateMatchesReference holds the water-level search to the
// sorted fill it replaced: on the same host and demands, every cap
// Allocate returns is within 1e-12 of refAllocate's, relative to the
// process's share of the cores (its cap plus the stream overhead taken
// off it, so that a cap the overhead nearly cancels is not held to the
// bits the subtraction lost). NETEM_EQUIV_SEEDS runs more rounds.
func TestAllocateMatchesReference(t *testing.T) {
	rounds := equivRounds()
	rng := rand.New(rand.NewPCG(50, 1))
	worst, where := 0.0, ""
	for r := 0; r < rounds; r++ {
		h, procs := randomRound(rng)
		want := refAllocate(h, procs)
		got := h.Allocate(procs)
		for i := range got {
			gap := math.Abs(got[i] - want[i])
			if gap == 0 {
				continue
			}
			// The cap is the process's share of the cores less its
			// stream overhead; the gap is measured against the share.
			share := math.Abs(want[i]) + streamOverhead*float64(max(procs[i].Threads, 1))*h.cfg.CorePumpRate
			rel := gap / share
			if rel > worst {
				worst = rel
				where = strconv.Itoa(r)
			}
			if !(rel <= 1e-12) {
				t.Fatalf("round %d (%d cores, %d jobs, %d processes): process %d capped at %v, reference %v (relative gap %.3g)",
					r, h.cfg.Cores, h.computeJobs, len(procs), i, got[i], want[i], rel)
			}
		}
	}
	t.Logf("%d rounds: widest relative gap %.3g (round %s)", rounds, worst, where)
}

// TestAllocateIsOrderFree: the caps depend on the demands, not on their
// order. Permuting the processes permutes the caps bit for bit, and
// processes with equal demands get identical caps — on the figure set's
// 64 processes under 64 compute jobs, 42 of them single-stream flows
// tied at the one-core cap, and on random rounds with and without a
// binding NIC.
func TestAllocateIsOrderFree(t *testing.T) {
	rng := rand.New(rand.NewPCG(50, 2))
	check := func(h *Host, procs []Demand) {
		t.Helper()
		caps := slices.Clone(h.Allocate(procs))
		for i := range procs {
			for j := range i {
				if procs[i] == procs[j] && math.Float64bits(caps[i]) != math.Float64bits(caps[j]) {
					t.Fatalf("%d cores, %d jobs, %d processes: equal demands %+v capped at %v and %v",
						h.cfg.Cores, h.computeJobs, len(procs), procs[i], caps[j], caps[i])
				}
			}
		}
		for range 4 {
			perm := rng.Perm(len(procs))
			shuffled := make([]Demand, len(procs))
			for k, p := range perm {
				shuffled[k] = procs[p]
			}
			for k, c := range h.Allocate(shuffled) {
				if math.Float64bits(c) != math.Float64bits(caps[perm[k]]) {
					t.Fatalf("%d cores, %d jobs, %d processes: process %d capped at %v, at %v once permuted",
						h.cfg.Cores, h.computeJobs, len(procs), perm[k], caps[perm[k]], c)
				}
			}
		}
	}

	h := New(Config{Cores: 8, CorePumpRate: 1.3e9, NICRate: 5e9})
	h.SetComputeJobs(64)
	procs := make([]Demand, 64)
	for i := range procs {
		procs[i] = Demand{Threads: 1, Rate: 2.6e9}
		if i%3 == 0 {
			procs[i] = Demand{Threads: 1 + i%8, Rate: 1e6 * float64(i)}
		}
	}
	check(h, procs)
	for range 300 {
		check(randomRound(rng))
	}
}
