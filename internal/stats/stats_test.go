package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestQuantileKnownValues(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	cases := []struct{ q, want float64 }{
		{0, 1},
		{1, 9},
		{0.5, 3.5},
		{0.25, 1.75},
		{0.75, 5.25},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileEdge(t *testing.T) {
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("Quantile(nil) != 0")
	}
	if Quantile([]float64{7}, 0.9) != 7 {
		t.Fatal("single-element quantile should return the element")
	}
	if Quantile([]float64{1, 2}, -0.5) != 1 || Quantile([]float64{1, 2}, 1.5) != 2 {
		t.Fatal("out-of-range q should clamp")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, qa, qb float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		qa = math.Abs(math.Mod(qa, 1))
		qb = math.Abs(math.Mod(qb, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		return Quantile(raw, qa) <= Quantile(raw, qb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileWithinRangeProperty(t *testing.T) {
	f := func(raw []float64, q float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		q = math.Abs(math.Mod(q, 1))
		v := Quantile(raw, q)
		s := make([]float64, len(raw))
		copy(s, raw)
		sort.Float64s(s)
		return v >= s[0] && v <= s[len(s)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Median != 3 || s.Max != 5 || s.Mean != 3 {
		t.Fatalf("Summarize = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(10, 2); got != 5 {
		t.Fatalf("Improvement = %v, want 5", got)
	}
	if !math.IsInf(Improvement(1, 0), 1) {
		t.Fatal("Improvement(1,0) should be +Inf")
	}
	if Improvement(0, 0) != 1 {
		t.Fatal("Improvement(0,0) should be 1")
	}
}

func TestArgmaxKey(t *testing.T) {
	if _, ok := ArgmaxKey(nil); ok {
		t.Fatal("ArgmaxKey(nil) reported ok")
	}
	k, ok := ArgmaxKey(map[int]float64{4: 1, 64: 9, 256: 3})
	if !ok || k != 64 {
		t.Fatalf("ArgmaxKey = %d, %v; want 64, true", k, ok)
	}
	// Deterministic tie-break toward the smaller key.
	k, _ = ArgmaxKey(map[int]float64{8: 5, 2: 5})
	if k != 2 {
		t.Fatalf("tie-break gave %d, want 2", k)
	}
}
