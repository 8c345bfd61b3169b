package endpoint

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// testHost is an 8-core host pumping 1.25 GB/s per core.
func testHost() *Host {
	return New(Config{Cores: 8, CorePumpRate: 1.25e9})
}

func TestValidate(t *testing.T) {
	if err := (Config{Cores: 8, CorePumpRate: 1e9}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := (Config{CorePumpRate: 1e9}).Validate(); err == nil {
		t.Fatal("zero cores accepted")
	}
	if err := (Config{Cores: 8}).Validate(); err == nil {
		t.Fatal("zero pump rate accepted")
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config did not panic")
		}
	}()
	New(Config{})
}

// TestDefaultsApplied: a config that leaves RestartBase zero restarts in
// 3 s on an idle host and 3·(1 + 0.35) s at one process per core over
// the core count, and two runnable threads a core cost 1/(1 + 0.05) of
// the pump rate.
func TestDefaultsApplied(t *testing.T) {
	h := testHost()
	over := 1.0 // 16 runnable on 8 cores; a variable, so that want rounds as the model does
	if got := h.RestartTime(1); got != 3 {
		t.Fatalf("idle RestartTime = %v, want 3", got)
	}
	if got, want := h.RestartTime(16), 3*(1+0.35*over); got != want {
		t.Fatalf("RestartTime(16) on 8 cores = %v, want %v", got, want)
	}
	if got, want := h.Efficiency(16), 1/(1+0.05*over); got != want {
		t.Fatalf("Efficiency(16) on 8 cores = %v, want %v", got, want)
	}
	if got := New(Config{Cores: 8, CorePumpRate: 1e9, RestartBase: 0.5}).RestartTime(1); got != 0.5 {
		t.Fatalf("RestartTime with RestartBase 0.5 = %v, want 0.5", got)
	}
}

func TestAllocateUncontendedMeetsDemand(t *testing.T) {
	h := testHost()
	// Two processes asking for half a core each on an idle host.
	caps := h.Allocate([]Demand{
		{Threads: 8, Rate: 0.5 * 1.25e9},
		{Threads: 8, Rate: 0.5 * 1.25e9},
	})
	for i, c := range caps {
		if c < 0.45*1.25e9 {
			t.Fatalf("proc %d capped at %v, demand easily fits", i, c)
		}
	}
}

func TestAllocateComputeLoadStarvesTransfers(t *testing.T) {
	h := testHost()
	demand := []Demand{{Threads: 8, Rate: 1.25e9}, {Threads: 8, Rate: 1.25e9}}
	free := slices.Clone(h.Allocate(demand)) // the next round overwrites the host's slice
	h.SetComputeJobs(16)
	loaded := h.Allocate(demand)
	for i := range free {
		if loaded[i] >= free[i]/3 {
			t.Fatalf("proc %d: compute load barely reduced cap: %v -> %v", i, free[i], loaded[i])
		}
	}
}

func TestAllocateMoreProcsClaimMoreUnderLoad(t *testing.T) {
	// The paper's core observation: under external compute load,
	// aggregate transfer throughput grows with the number of
	// processes (up to a point).
	h := testHost()
	h.SetComputeJobs(16)
	sum := func(n int) float64 {
		d := make([]Demand, n)
		for i := range d {
			d[i] = Demand{Threads: 8, Rate: 1.25e9}
		}
		total := 0.0
		for _, c := range h.Allocate(d) {
			total += c
		}
		return total
	}
	s2, s16, s50 := sum(2), sum(16), sum(50)
	if !(s16 > 2*s2) {
		t.Fatalf("16 procs (%v) should far outclaim 2 procs (%v) under load", s16, s2)
	}
	if !(s50 > s16) {
		t.Fatalf("50 procs (%v) should outclaim 16 procs (%v) under load", s50, s16)
	}
}

func TestAllocateOverheadDominatesEventually(t *testing.T) {
	// With enough streams per process, context switching and
	// bookkeeping must bend aggregate capacity back down: this is
	// the decline after the critical point in Figure 1.
	h := testHost()
	sum := func(n int) float64 {
		d := make([]Demand, n)
		for i := range d {
			d[i] = Demand{Threads: 8, Rate: 1.25e9}
		}
		total := 0.0
		for _, c := range h.Allocate(d) {
			total += c
		}
		return total
	}
	peak := sum(8)
	far := sum(512)
	if far >= peak {
		t.Fatalf("512 procs (%v) should pump less than 8 procs (%v)", far, peak)
	}
}

func TestEfficiencyMonotone(t *testing.T) {
	h := testHost()
	if e := h.Efficiency(4); e != 1 {
		t.Fatalf("Efficiency(4) = %v, want 1 (under-subscribed)", e)
	}
	if e := h.Efficiency(8); e != 1 {
		t.Fatalf("Efficiency(8) = %v, want 1", e)
	}
	prev := 1.0
	for n := 8; n <= 4096; n *= 2 {
		e := h.Efficiency(n)
		if e > prev || e <= 0 || e > 1 {
			t.Fatalf("Efficiency(%d) = %v not in (0, %v]", n, e, prev)
		}
		prev = e
	}
}

func TestAllocateNICCap(t *testing.T) {
	h := New(Config{Cores: 8, CorePumpRate: 1.25e9, NICRate: 2e9})
	caps := h.Allocate([]Demand{
		{Threads: 1, Rate: 1.25e9},
		{Threads: 1, Rate: 1.25e9},
		{Threads: 1, Rate: 1.25e9},
	})
	total := 0.0
	for _, c := range caps {
		total += c
	}
	if total > 2.0001e9 {
		t.Fatalf("aggregate %v exceeds NIC rate 2e9", total)
	}
	// Proportional scaling: equal demands stay equal.
	if math.Abs(caps[0]-caps[1]) > 1 || math.Abs(caps[1]-caps[2]) > 1 {
		t.Fatalf("unequal caps for equal demands: %v", caps)
	}
}

func TestAllocateEmptyAndZeroDemands(t *testing.T) {
	h := testHost()
	if caps := h.Allocate(nil); len(caps) != 0 {
		t.Fatalf("Allocate(nil) = %v, want empty", caps)
	}
	caps := h.Allocate([]Demand{{Threads: 0, Rate: -5}})
	if len(caps) != 1 || caps[0] != 0 {
		t.Fatalf("zero demand got cap %v, want 0", caps)
	}
}

func TestAllocateNeverNegative(t *testing.T) {
	h := testHost()
	f := func(jobs uint8, nprocs uint8, threads uint8) bool {
		h.SetComputeJobs(int(jobs % 128))
		n := int(nprocs%64) + 1
		d := make([]Demand, n)
		for i := range d {
			d[i] = Demand{Threads: int(threads), Rate: 1e9}
		}
		for _, c := range h.Allocate(d) {
			if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateTotalNeverExceedsMachine(t *testing.T) {
	h := testHost()
	f := func(jobs uint8, nprocs uint8) bool {
		h.SetComputeJobs(int(jobs % 64))
		n := int(nprocs%100) + 1
		d := make([]Demand, n)
		for i := range d {
			d[i] = Demand{Threads: 4, Rate: 2e9}
		}
		total := 0.0
		for _, c := range h.Allocate(d) {
			total += c
		}
		// Total pump can never exceed cores * rate (efficiency <= 1).
		return total <= 8*1.25e9*1.0001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetComputeJobsNegative(t *testing.T) {
	h := testHost()
	h.SetComputeJobs(-3)
	if h.computeJobs != 0 {
		t.Fatalf("computeJobs = %d, want 0", h.computeJobs)
	}
}

func TestRestartTimeGrowsWithLoad(t *testing.T) {
	h := testHost()
	idle := h.RestartTime(2)
	if idle != 3 {
		t.Fatalf("idle restart = %v, want RestartBase 3", idle)
	}
	h.SetComputeJobs(64)
	loaded := h.RestartTime(2)
	if loaded <= idle {
		t.Fatalf("restart under load (%v) not above idle (%v)", loaded, idle)
	}
	// 64 compute jobs + 2 procs on 8 cores: over = 66/8-1 = 7.25;
	// 3*(1+0.35*7.25) = 10.6s — roughly a third of a 30s epoch,
	// matching the paper's 33%-50% overhead under heavy load.
	if loaded < 8 || loaded > 14 {
		t.Fatalf("restart under 64 jobs = %v, want ~10.6", loaded)
	}
}

func TestRestartTimeMinimumOneProc(t *testing.T) {
	h := testHost()
	if h.RestartTime(0) != h.RestartTime(1) {
		t.Fatal("RestartTime(0) should clamp to one process")
	}
}

// fill runs one water-level round: processes demanding d and jobs
// compute jobs share c cores. It returns each process's allocation and
// each job's.
func fill(d []float64, jobs int, c float64) ([]float64, float64) {
	var above []float64
	level := waterLevel(d, jobs, c, &above)
	a := make([]float64, len(d))
	for i, x := range d {
		a[i] = min(x, level)
	}
	return a, min(c, computeWeight*level)
}

func TestWaterfillExactDemandFit(t *testing.T) {
	d := []float64{0.1, 0.2, 0.3}
	a, _ := fill(d, 0, 1)
	for i := range d {
		if a[i] != d[i] {
			t.Fatalf("alloc %v, want demands %v met exactly", a, d)
		}
	}
}

func TestWaterfillScarcity(t *testing.T) {
	a, _ := fill([]float64{1, 1}, 0, 0.8)
	if math.Abs(a[0]-0.4) > 1e-12 || math.Abs(a[1]-0.4) > 1e-12 {
		t.Fatalf("alloc %v, want [0.4 0.4]", a)
	}
}

// TestWaterfillWeights: a compute job weighs computeWeight (4) transfer
// processes, so two processes and one job on 3 cores get 0.5, 0.5 and 2.
func TestWaterfillWeights(t *testing.T) {
	a, job := fill([]float64{1, 1}, 1, 3)
	if math.Abs(a[0]-0.5) > 1e-12 || math.Abs(a[1]-0.5) > 1e-12 || math.Abs(job-2) > 1e-12 {
		t.Fatalf("alloc %v and job %v, want [0.5 0.5] and 2", a, job)
	}
}

func TestWaterfillSmallDemandReleases(t *testing.T) {
	// A process with a small demand frees capacity for the others.
	a, _ := fill([]float64{0.05, 1, 1}, 0, 0.8)
	if a[0] != 0.05 {
		t.Fatalf("small demand allocated %v, want 0.05", a[0])
	}
	if math.Abs(a[1]-0.375) > 1e-12 || math.Abs(a[2]-0.375) > 1e-12 {
		t.Fatalf("alloc %v, want remaining 0.75 split evenly", a)
	}
}

// TestWaterfillConservation: every allocation lies in [0, demand], and
// the processes and jobs together take every core, or every demand when
// all of them fit.
func TestWaterfillConservation(t *testing.T) {
	f := func(seeds []uint8, jobs uint8) bool {
		if len(seeds) > 32 {
			seeds = seeds[:32]
		}
		d := make([]float64, len(seeds))
		totalD := float64(jobs%4) * 2
		for i, s := range seeds {
			d[i] = float64(s%51) / 50
			totalD += d[i]
		}
		const c = 2.0
		a, job := fill(d, int(jobs%4), c)
		sum := float64(jobs%4) * job
		for i := range a {
			if a[i] < 0 || a[i] > d[i] {
				return false // allocation outside [0, demand]
			}
			sum += a[i]
		}
		want := math.Min(totalD, c)
		return math.Abs(sum-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
