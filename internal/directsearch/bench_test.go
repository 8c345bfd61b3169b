package directsearch

import (
	"testing"

	"dstune/internal/sim"
)

// quadratic2D is the benchmark objective: a smooth 2-D bowl.
func quadratic2D(x []int) float64 {
	dx, dy := float64(x[0]-40), float64(x[1]-9)
	return -dx*dx - 2*dy*dy
}

func BenchmarkCompassSearch(b *testing.B) {
	box := MustBox([]int{1, 1}, []int{128, 32})
	for i := 0; i < b.N; i++ {
		c := NewCompass([]int{2, 2}, box, CompassConfig{}, sim.NewRNG(uint64(i)))
		Maximize(c, quadratic2D, 0)
	}
}

func BenchmarkNelderMeadSearch(b *testing.B) {
	box := MustBox([]int{1, 1}, []int{128, 32})
	for i := 0; i < b.N; i++ {
		nm := NewNelderMead([]int{2, 2}, box, NMConfig{})
		Maximize(nm, quadratic2D, 0)
	}
}
