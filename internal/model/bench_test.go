package model

import "testing"

func BenchmarkFit(b *testing.B) {
	want := Coeffs{A: 1e-20, B: -1e-18, C: 3.2e-17}
	ns := []int{1, 2, 4, 8, 16, 32, 64, 128}
	th := synth(want, ns)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(ns, th); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimum(b *testing.B) {
	c := Coeffs{A: 1e-20, B: -1e-18, C: 3.2e-17}
	for i := 0; i < b.N; i++ {
		if c.Optimum(1, 512) < 1 {
			b.Fatal("bad optimum")
		}
	}
}

// TestOptimumAllocs: the model tuner's per-epoch argmax over the fitted
// curve allocates nothing.
func TestOptimumAllocs(t *testing.T) {
	c := Coeffs{A: 1e-20, B: -1e-18, C: 3.2e-17}
	if n := testing.AllocsPerRun(100, func() { c.Optimum(1, 512) }); n != 0 {
		t.Errorf("Optimum: %v allocs/op, want 0", n)
	}
}
