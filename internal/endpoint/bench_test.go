package endpoint

import (
	"math/rand/v2"
	"testing"
)

// loadedHost returns an 8-core host running 16 compute jobs and the
// demands of n transfer processes to schedule on it.
func loadedHost(n int) (*Host, []Demand) {
	h := New(Config{Cores: 8, CorePumpRate: 1.25e9, NICRate: 5e9})
	h.SetComputeJobs(16)
	d := make([]Demand, n)
	for i := range d {
		d[i] = Demand{Threads: 8, Rate: 1e9}
	}
	return h, d
}

// benchAllocate measures one scheduling round with n transfer
// processes against 16 or 17 compute jobs, in turn: the jobs change
// every round, so each round solves afresh instead of reusing the last
// round's caps (BenchmarkAllocatePinned times the reuse).
func benchAllocate(b *testing.B, n int) {
	b.Helper()
	h, d := loadedHost(n)
	jobs := 16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs = 33 - jobs
		h.SetComputeJobs(jobs)
		caps := h.Allocate(d)
		if len(caps) != n {
			b.Fatal("wrong length")
		}
	}
}

func BenchmarkAllocate8Procs(b *testing.B)   { benchAllocate(b, 8) }
func BenchmarkAllocate64Procs(b *testing.B)  { benchAllocate(b, 64) }
func BenchmarkAllocate512Procs(b *testing.B) { benchAllocate(b, 512) }

// mixRound is one scheduling round of figureMix: the compute jobs
// running and the processes' demands.
type mixRound struct {
	jobs  int
	procs []Demand
}

// figureMix returns a host shaped like the figure set's testbeds (8
// cores pumping 1.3 GB/s each behind a 5 GB/s NIC) and 64 rounds like
// theirs: 0, 16 or 64 compute jobs in turn, and a tuned transfer's 1–32
// processes of 1–8 streams beside 64 single-stream external flows. A
// flow's demand is twice its offered rate plus 10 MB/s, as the fabric
// asks, so fresh flows tie at 10 MB/s and fast ones tie at the
// one-core cap.
func figureMix() (*Host, []mixRound) {
	const pump = 1.3e9
	h := New(Config{Cores: 8, CorePumpRate: pump, NICRate: 5e9})
	rng := rand.New(rand.NewPCG(50, 3))
	demand := func(threads int) Demand {
		offered := 0.0
		switch rng.IntN(3) {
		case 0: // fresh
		case 1:
			offered = pump * rng.Float64() / 2
		default:
			offered = pump // at the one-core cap
		}
		return Demand{Threads: threads, Rate: 2*offered + 10e6}
	}
	rounds := make([]mixRound, 64)
	for i := range rounds {
		r := mixRound{jobs: []int{0, 16, 64}[i%3]}
		for range 1 + rng.IntN(32) {
			r.procs = append(r.procs, demand(1+rng.IntN(8)))
		}
		for range 64 {
			r.procs = append(r.procs, demand(1))
		}
		rounds[i] = r
	}
	return h, rounds
}

// BenchmarkAllocateFigureMix measures a scheduling round of the figure
// set's shape, cycling through figureMix's rounds.
func BenchmarkAllocateFigureMix(b *testing.B) {
	h, rounds := figureMix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rounds[i%len(rounds)]
		h.SetComputeJobs(r.jobs)
		h.Allocate(r.procs)
	}
}

// BenchmarkAllocatePinned measures the scheduling round of Figure
// 5(e)'s steady state, repeated: 64 single-stream external flows and a
// transfer's 4 processes of 4 streams on the figure set's host, each
// flow pinned at its cap, so that it asks for twice that plus 10 MB/s,
// above the water level. Every round after the first reuses its caps.
func BenchmarkAllocatePinned(b *testing.B) {
	const pump = 1.3e9
	h := New(Config{Cores: 8, CorePumpRate: pump, NICRate: 5e9})
	procs := make([]Demand, 0, 68)
	for range 64 {
		procs = append(procs, Demand{Threads: 1, Rate: pump})
	}
	for range 4 {
		procs = append(procs, Demand{Threads: 4, Rate: pump})
	}
	caps := h.Allocate(procs)
	for i := range procs {
		procs[i].Rate = 2*caps[i] + 10e6
	}
	h.Allocate(procs)
	if !h.reuses(procs) {
		b.Fatal("the steady round does not reuse its caps")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Allocate(procs)
	}
}

// BenchmarkAllocateLadder512 measures the level search's worst case: 512
// processes whose demands saturate a quarter at a time, so the search
// sorts the ones its passes leave.
func BenchmarkAllocateLadder512(b *testing.B) {
	h := New(Config{Cores: 8, CorePumpRate: 1.3e9})
	d := ladder(512, 8, 1.3e9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Allocate(d)
	}
}

// TestAllocateAllocs holds a scheduling round to its budget, exactly:
// once the host has scratch for n processes, kept caps included (two
// rounds), a round allocates nothing, at every process count, whether it
// reuses the last round's caps or, its compute jobs changing every
// round, solves afresh.
func TestAllocateAllocs(t *testing.T) {
	for _, n := range []int{8, 64, 512} {
		h, d := loadedHost(n)
		h.Allocate(d)
		h.SetComputeJobs(17)
		h.Allocate(d)
		if got := testing.AllocsPerRun(100, func() { h.Allocate(d) }); got != 0 {
			t.Errorf("%d processes: Allocate allocates %v times a reused round, want 0", n, got)
		}
		jobs := 16
		if got := testing.AllocsPerRun(100, func() { jobs = 33 - jobs; h.SetComputeJobs(jobs); h.Allocate(d) }); got != 0 {
			t.Errorf("%d processes: Allocate allocates %v times a solved round, want 0", n, got)
		}
	}
}
