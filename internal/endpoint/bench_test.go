package endpoint

import "testing"

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
// processes against 16 compute jobs.
func benchAllocate(b *testing.B, n int) {
	b.Helper()
	h, d := loadedHost(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		caps := h.Allocate(d)
		if len(caps) != n {
			b.Fatal("wrong length")
		}
	}
}

func BenchmarkAllocate8Procs(b *testing.B)   { benchAllocate(b, 8) }
func BenchmarkAllocate64Procs(b *testing.B)  { benchAllocate(b, 64) }
func BenchmarkAllocate512Procs(b *testing.B) { benchAllocate(b, 512) }

// TestAllocateAllocs holds a scheduling round to its budget, exactly:
// once the host has scratch for n processes (AllocsPerRun's warm-up
// round), a round allocates nothing, at every process count.
func TestAllocateAllocs(t *testing.T) {
	for _, n := range []int{8, 64, 512} {
		h, d := loadedHost(n)
		if got := testing.AllocsPerRun(100, func() { h.Allocate(d) }); got != 0 {
			t.Errorf("%d processes: Allocate allocates %v times a round, want 0", n, got)
		}
	}
}
