package endpoint

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// reuseCounts counts the rounds TestAllocateReuseIsExact must reach: a
// round that reused the last one's caps, such a round with the NIC
// binding and with it free, a round after one in which a demand
// saturated, a round with a demand exactly at the level, and a round
// whose caps a demand clear of its level, grown, leaves as they are.
type reuseCounts struct {
	reused, nicBound, nicFree, afterSaturated, atLevel, grown int
}

// unsaturatedLevel is the water level of a round of n processes under
// jobs compute jobs on cores cores in which no demand saturates, as
// waterLevel computes it.
func unsaturatedLevel(cores, n, jobs int) float64 {
	return float64(cores) / (float64(n) + float64(computeWeight*jobs))
}

// above returns a demand of t threads whose demand in cores is above the
// level of a round without saturation on h, n processes long: between
// that level and a core and a half's worth of rate.
func above(rng *rand.Rand, h *Host, n, t int) Demand {
	level := unsaturatedLevel(h.cfg.Cores, n, h.computeJobs)
	return Demand{Threads: t, Rate: h.cfg.CorePumpRate * (level + (1.5-level)*(0.01+0.99*rng.Float64()))}
}

// atLevel returns a rate at which a process of t threads on h demands
// exactly level cores, and whether there is one near where it would be.
func atLevel(h *Host, t int, level float64) (float64, bool) {
	r := (level - streamOverhead*float64(t)) * h.cfg.CorePumpRate
	if !(r > 0) {
		return 0, false
	}
	for _, dir := range []float64{math.Inf(1), math.Inf(-1)} {
		x := r
		for range 64 {
			if d, _ := h.demand(Demand{Threads: t, Rate: x}); d == level {
				return x, true
			}
			x = math.Nextafter(x, dir)
		}
	}
	return 0, false
}

// change applies one random change to the round procs on h: the same
// round again, fresh rates above the level, a process more or fewer, one
// thread count changed, other compute jobs, a demand that saturates, or
// a demand exactly at the level. It reports whether a demand is now
// exactly at the level.
func change(rng *rand.Rand, h *Host, procs *[]Demand) bool {
	ps := *procs
	i := rng.IntN(len(ps))
	switch r := rng.IntN(16); {
	case r < 5: // the same round again
	case r < 9:
		for j := range ps {
			ps[j] = above(rng, h, len(ps), ps[j].Threads)
		}
	case r < 10:
		ps = append(ps, above(rng, h, len(ps)+1, 1+rng.IntN(8)))
	case r < 11 && len(ps) > 1:
		ps = slices.Delete(ps, i, i+1)
	case r < 12:
		ps[i].Threads = 1 + (ps[i].Threads+rng.IntN(7))%8
	case r < 13:
		h.SetComputeJobs([]int{0, 1, 16, 64}[rng.IntN(4)])
	case r < 14:
		level := unsaturatedLevel(h.cfg.Cores, len(ps), h.computeJobs)
		ps[i].Rate = h.cfg.CorePumpRate * level * rng.Float64() / 2
	default:
		level := unsaturatedLevel(h.cfg.Cores, len(ps), h.computeJobs)
		if rate, ok := atLevel(h, ps[i].Threads, level); ok {
			ps[i].Rate = rate
			*procs = ps
			return true
		}
	}
	*procs = ps
	return false
}

// TestAllocateReuseIsExact holds a round that reuses the last round's
// caps to the full solve, bit for bit: over random sequences of rounds
// on one host — the same round again, fresh rates above the level, the
// process set grown and shrunk, one thread count changed, the compute
// jobs changed, a demand that saturates and one exactly at the level,
// with a NIC that binds as the set grows and frees as it shrinks — each
// round's caps must be the bits a fresh host, which has no round to
// reuse, computes. Reuses, told which demands changed since the last
// round, must agree with reuses, which reads them all; and a demand that
// Clear says is clear of a round's level must leave the round's caps as
// they are when it grows. Over all rounds each case reuseCounts names
// must have been reached. NETEM_EQUIV_SEEDS runs more rounds.
func TestAllocateReuseIsExact(t *testing.T) {
	const perSequence = 40
	rng := rand.New(rand.NewPCG(51, 1))
	var rc reuseCounts
	for range equivRounds() / perSequence {
		cfg := Config{Cores: 1 + rng.IntN(16), CorePumpRate: 1.3e9}
		jobs := []int{0, 16, 64}[rng.IntN(3)]
		n := cfg.Cores + 1 + rng.IntN(64)
		probe := New(cfg)
		probe.SetComputeJobs(jobs)
		procs := make([]Demand, n)
		for i := range procs {
			procs[i] = above(rng, probe, n, 1+rng.IntN(8))
		}
		if rng.IntN(4) != 0 {
			// A NIC about as fast as the first round's processes together,
			// so that it binds as the set grows and frees as it shrinks.
			cfg.NICRate = sum(probe.Allocate(procs)) * (0.97 + 0.06*rng.Float64())
		}
		h := New(cfg)
		h.SetComputeJobs(jobs)
		saturated := false
		last := slices.Clone(procs)
		for range perSequence {
			exact := change(rng, h, &procs)
			full := New(cfg)
			full.SetComputeJobs(h.computeJobs)
			want := slices.Clone(full.Allocate(procs))
			reuses := h.reuses(procs)
			var changed []int
			for i := range procs {
				if i >= len(last) || procs[i] != last[i] {
					changed = append(changed, i)
				}
			}
			if r := h.Reuses(procs, changed); r != reuses {
				t.Fatalf("%d cores, %d jobs, %d processes: Reuses of the %d changed demands %v, reuses of all %v",
					cfg.Cores, h.computeJobs, len(procs), len(changed), r, reuses)
			}
			got := h.Allocate(procs)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%d cores, %d jobs, %d processes (reused %v): process %d %+v capped at %v, the full solve %v",
						cfg.Cores, h.computeJobs, len(procs), reuses, i, procs[i], got[i], want[i])
				}
			}
			if exact {
				rc.atLevel++
			}
			if saturated {
				rc.afterSaturated++
			}
			if reuses {
				rc.reused++
				noNIC := New(Config{Cores: cfg.Cores, CorePumpRate: cfg.CorePumpRate})
				noNIC.SetComputeJobs(h.computeJobs)
				if cfg.NICRate > 0 && sum(noNIC.Allocate(procs)) > cfg.NICRate {
					rc.nicBound++
				} else {
					rc.nicFree++
				}
			}
			saturated = saturates(h, procs)
			last = append(last[:0], procs...)
			if i := rng.IntN(len(procs)); h.Clear(procs[i]) {
				rc.grown++
				grownClearKeepsCaps(t, cfg, h.computeJobs, procs, i, got)
			}
		}
	}
	t.Logf("%+v", rc)
	for _, c := range []struct {
		what string
		n    int
	}{
		{"reused rounds", rc.reused}, {"reused rounds with the NIC binding", rc.nicBound},
		{"reused rounds with the NIC free", rc.nicFree}, {"rounds after a saturated one", rc.afterSaturated},
		{"rounds with a demand exactly at the level", rc.atLevel},
		{"rounds with a grown clear demand", rc.grown},
	} {
		if c.n == 0 {
			t.Errorf("no %s", c.what)
		}
	}
}

// saturates reports whether a demand of the round procs on h saturates:
// whether one is at or below the level of a round without saturation.
func saturates(h *Host, procs []Demand) bool {
	level := unsaturatedLevel(h.cfg.Cores, len(procs), h.computeJobs)
	for _, d := range procs {
		if cores, _ := h.demand(d); !(cores > level) {
			return true
		}
	}
	return false
}

// sum returns the sum of xs.
func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// grownClearKeepsCaps checks that the round procs on a host of cfg under
// jobs compute jobs, whose caps were caps, gets them again, bit for bit,
// when its demand i, clear of the round's level, grows: Clear's promise,
// on which a round solved with a stale demand rests.
func grownClearKeepsCaps(t *testing.T, cfg Config, jobs int, procs []Demand, i int, caps []float64) {
	t.Helper()
	grown := slices.Clone(procs)
	grown[i].Rate = grown[i].Rate*1.5 + 1
	h := New(cfg)
	h.SetComputeJobs(jobs)
	got := h.Allocate(grown)
	for j := range caps {
		if math.Float64bits(got[j]) != math.Float64bits(caps[j]) {
			t.Fatalf("%d cores, %d jobs, %d processes: process %d capped at %v once clear demand %d %+v grew, %v before",
				cfg.Cores, jobs, len(procs), j, got[j], i, procs[i], caps[j])
		}
	}
}
