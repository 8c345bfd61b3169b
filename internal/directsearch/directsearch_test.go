package directsearch

import (
	"testing"
	"testing/quick"

	"dstune/internal/ivec"
	"dstune/internal/sim"
)

// concave1D returns a 1-D objective peaking at c.
func concave1D(c int) func([]int) float64 {
	return func(x []int) float64 {
		d := float64(x[0] - c)
		return -d * d
	}
}

// concave2D returns a 2-D objective peaking at (a, b).
func concave2D(a, b int) func([]int) float64 {
	return func(x []int) float64 {
		dx, dy := float64(x[0]-a), float64(x[1]-b)
		return -dx*dx - 2*dy*dy
	}
}

// searchers builds one of each method for the given start and box.
func searchers(start []int, box Box, seed uint64) map[string]Searcher {
	return map[string]Searcher{
		"compass": NewCompass(start, box, CompassConfig{}, sim.NewRNG(seed)),
		"nm":      NewNelderMead(start, box, NMConfig{}),
	}
}

func TestBoxConstruction(t *testing.T) {
	if _, err := NewBox(nil, nil); err == nil {
		t.Fatal("empty bounds accepted")
	}
	if _, err := NewBox([]int{1, 2}, []int{3}); err == nil {
		t.Fatal("mismatched bounds accepted")
	}
	if _, err := NewBox([]int{5}, []int{1}); err == nil {
		t.Fatal("inverted bounds accepted")
	}
	b, err := NewBox([]int{1, 1}, []int{64, 32})
	if err != nil {
		t.Fatal(err)
	}
	if b.Dim() != 2 || b.Lo(0) != 1 || b.Hi(1) != 32 {
		t.Fatalf("box accessors wrong: %+v", b)
	}
}

func TestMustBoxPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBox did not panic")
		}
	}()
	MustBox([]int{2}, []int{1})
}

func TestClampPaperExamples(t *testing.T) {
	// "(3.8, 9.2) is rounded off to (4, 9)".
	b := MustBox([]int{1, 1}, []int{100, 100})
	got := b.Clamp([]float64{3.8, 9.2})
	if got[0] != 4 || got[1] != 9 {
		t.Fatalf("Clamp(3.8, 9.2) = %v, want [4 9]", got)
	}
	// "(12, -1) is projected to (12, 1)".
	got = b.Clamp([]float64{12, -1})
	if got[0] != 12 || got[1] != 1 {
		t.Fatalf("Clamp(12, -1) = %v, want [12 1]", got)
	}
}

func TestClampHalfAwayFromZero(t *testing.T) {
	b := MustBox([]int{-100}, []int{100})
	cases := []struct {
		in   float64
		want int
	}{{0.5, 1}, {1.5, 2}, {-0.5, -1}, {-1.5, -2}, {2.4, 2}, {-2.4, -2}}
	for _, c := range cases {
		if got := b.Clamp([]float64{c.in})[0]; got != c.want {
			t.Errorf("Clamp(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestClampIntAndContains(t *testing.T) {
	b := MustBox([]int{1, 1}, []int{10, 10})
	got := b.ClampInt([]int{0, 99})
	if got[0] != 1 || got[1] != 10 {
		t.Fatalf("ClampInt = %v", got)
	}
}

func TestAllMethodsFind1DPeak(t *testing.T) {
	box := MustBox([]int{1}, []int{128})
	for name, s := range searchers([]int{2}, box, 1) {
		x, f := Maximize(s, concave1D(40), 0)
		if x[0] != 40 {
			t.Errorf("%s: found %v (f=%v), want [40]", name, x, f)
		}
	}
}

func TestAllMethodsFind2DPeakNearby(t *testing.T) {
	box := MustBox([]int{1, 1}, []int{128, 32})
	for name, s := range searchers([]int{2, 8}, box, 2) {
		x, _ := Maximize(s, concave2D(50, 12), 0)
		// Direct search on integers converges to the peak or an
		// immediate neighbour on these smooth objectives.
		if abs(x[0]-50) > 1 || abs(x[1]-12) > 1 {
			t.Errorf("%s: found %v, want near [50 12]", name, x)
		}
	}
}

func TestPeakAtBoundary(t *testing.T) {
	// A monotone objective pushes the search to the upper bound.
	box := MustBox([]int{1}, []int{64})
	mono := func(x []int) float64 { return float64(x[0]) }
	for name, s := range searchers([]int{1}, box, 3) {
		x, _ := Maximize(s, mono, 0)
		if x[0] != 64 {
			t.Errorf("%s: found %v, want [64]", name, x)
		}
	}
}

func TestStartAtUpperCorner(t *testing.T) {
	// Starting at the top corner must not trap or loop the search.
	box := MustBox([]int{1, 1}, []int{16, 16})
	for name, s := range searchers([]int{16, 16}, box, 4) {
		x, _ := Maximize(s, concave2D(4, 4), 0)
		if abs(x[0]-4) > 1 || abs(x[1]-4) > 1 {
			t.Errorf("%s: found %v, want near [4 4]", name, x)
		}
	}
}

func TestDegenerateBoxTerminates(t *testing.T) {
	box := MustBox([]int{7}, []int{7})
	for name, s := range searchers([]int{7}, box, 5) {
		x, _ := Maximize(s, concave1D(0), 100)
		if x[0] != 7 {
			t.Errorf("%s: degenerate box gave %v", name, x)
		}
		if _, done := s.Suggest(); !done {
			t.Errorf("%s: not done after Maximize on degenerate box", name)
		}
	}
}

func TestBestAtLeastStartProperty(t *testing.T) {
	box := MustBox([]int{1, 1}, []int{64, 64})
	f := func(seed uint64, sx, sy uint8, cx, cy uint8) bool {
		start := []int{int(sx%64) + 1, int(sy%64) + 1}
		obj := concave2D(int(cx%64)+1, int(cy%64)+1)
		for _, s := range searchers(start, box, seed) {
			_, fb := Maximize(s, obj, 0)
			if fb < obj(start) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSuggestIdempotent(t *testing.T) {
	box := MustBox([]int{1}, []int{64})
	for name, s := range searchers([]int{2}, box, 6) {
		x1, d1 := s.Suggest()
		x2, d2 := s.Suggest()
		if d1 || d2 || !ivec.Equal(x1, x2) {
			t.Errorf("%s: Suggest not idempotent: %v/%v", name, x1, x2)
		}
	}
}

func TestObserveWithoutSuggestPanics(t *testing.T) {
	for name, s := range searchers([]int{2}, MustBox([]int{1}, []int{64}), 7) {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Observe without Suggest did not panic", name)
				}
			}()
			s.Observe(1)
		}()
	}
}

func TestMaxEvalsCaps(t *testing.T) {
	box := MustBox([]int{1}, []int{1 << 20})
	// An objective that keeps improving forever would never converge;
	// the evaluation cap must stop it.
	mono := func(x []int) float64 { return float64(x[0]) }
	ss := map[string]Searcher{
		"compass": NewCompass([]int{1}, box, CompassConfig{}, sim.NewRNG(8)),
		"nm":      NewNelderMead([]int{1}, box, NMConfig{}),
	}
	for name, s := range ss {
		evals := 0
		for {
			_, done := s.Suggest()
			if done {
				break
			}
			evals++
			if evals > evalCap {
				t.Fatalf("%s: exceeded the %d-evaluation cap", name, evalCap)
			}
			s.Observe(mono(sPend(s)))
		}
		// Compass climbs one step per eval and must hit the
		// cap exactly; NM's exponential expansion may reach the bound
		// and converge legitimately before the cap.
		if name != "nm" && evals != evalCap {
			t.Errorf("%s: stopped after %d evals, want %d", name, evals, evalCap)
		}
	}
}

// sPend extracts the pending point for TestMaxEvalsCaps's bookkeeping.
func sPend(s Searcher) []int {
	x, _ := s.Suggest()
	return x
}

func TestCompassLambdaHalves(t *testing.T) {
	c := NewCompass([]int{32}, MustBox([]int{1}, []int{64}), CompassConfig{Lambda: 8}, sim.NewRNG(9))
	// Flat objective: nothing ever improves, so lambda halves through
	// 8, 4, 2, 1, 0.5 and the search stops below 0.5.
	Maximize(c, func([]int) float64 { return 0 }, 0)
	if c.lambda >= 0.5 {
		t.Fatalf("final lambda = %v, want < 0.5", c.lambda)
	}
	if _, done := c.Suggest(); !done {
		t.Fatal("compass not done after lambda exhaustion")
	}
}

func TestCompassIncumbentTracksBest(t *testing.T) {
	c := NewCompass([]int{2}, MustBox([]int{1}, []int{64}), CompassConfig{}, sim.NewRNG(10))
	Maximize(c, concave1D(20), 0)
	x, f := c.incumbent, c.fIncumbent
	bx, bf := c.Best()
	if !ivec.Equal(x, bx) || f != bf {
		t.Fatalf("incumbent (%v, %v) != best (%v, %v)", x, f, bx, bf)
	}
}

func TestCompassEvaluatesStartFirst(t *testing.T) {
	c := NewCompass([]int{5}, MustBox([]int{1}, []int{64}), CompassConfig{}, sim.NewRNG(11))
	x, done := c.Suggest()
	if done || x[0] != 5 {
		t.Fatalf("first suggestion = %v, want the start [5]", x)
	}
}

func TestNelderMeadPhases(t *testing.T) {
	nm := NewNelderMead([]int{2}, MustBox([]int{1}, []int{64}), NMConfig{})
	if nm.phase != nmInit {
		t.Fatalf("initial phase = %d, want nmInit", nm.phase)
	}
	Maximize(nm, concave1D(30), 0)
	if nm.phase != nmDone {
		t.Fatalf("final phase = %d, want nmDone", nm.phase)
	}
}

func TestNelderMeadInitialSimplexNotDegenerate(t *testing.T) {
	// Start at the upper bound: the offset vertex must flip downward.
	nm := NewNelderMead([]int{64}, MustBox([]int{1}, []int{64}), NMConfig{})
	if ivec.Equal(nm.verts[0].x, nm.verts[1].x) {
		t.Fatalf("degenerate initial simplex: %v, %v", nm.verts[0].x, nm.verts[1].x)
	}
}

func TestNelderMead2DSimplexSize(t *testing.T) {
	nm := NewNelderMead([]int{2, 2}, MustBox([]int{1, 1}, []int{64, 64}), NMConfig{})
	if len(nm.verts) != 3 {
		t.Fatalf("2-D simplex has %d vertices, want 3", len(nm.verts))
	}
}

func TestCompassDeterministicPerSeed(t *testing.T) {
	runOnce := func(seed uint64) []int {
		c := NewCompass([]int{2, 2}, MustBox([]int{1, 1}, []int{64, 64}), CompassConfig{}, sim.NewRNG(seed))
		x, _ := Maximize(c, concave2D(40, 9), 0)
		return x
	}
	a, b := runOnce(3), runOnce(3)
	if !ivec.Equal(a, b) {
		t.Fatalf("same seed, different trajectories: %v vs %v", a, b)
	}
}

func TestMaximizeRespectsCap(t *testing.T) {
	c := NewCompass([]int{1}, MustBox([]int{1}, []int{1 << 20}), CompassConfig{}, sim.NewRNG(1))
	calls := 0
	Maximize(c, func(x []int) float64 { calls++; return float64(x[0]) }, 7)
	if calls != 7 {
		t.Fatalf("objective called %d times, want 7", calls)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
