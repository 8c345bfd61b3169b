package sim

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d: %d != %d", i, av, bv)
		}
	}
}

func TestNewRNGSeedsIndependent(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided on %d of 1000 draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	g := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := g.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

// TestFloat64MatchesRand holds Float64's direct read of the PCG to the
// value math/rand/v2 computes from the same source: every seeded
// simulation depends on the two being the same draw, bit for bit.
func TestFloat64MatchesRand(t *testing.T) {
	const seed = 2016
	g := NewRNG(seed)
	r := rand.New(rand.NewPCG(seed, splitmix64(seed)))
	for i := 0; i < 1_000_000; i++ {
		if got, want := g.Float64(), r.Float64(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %d: Float64() = %v, math/rand/v2 = %v", i, got, want)
		}
	}
}

// TestExpFloat64Mean checks the loss clock's draw: rate 1, so mean and
// variance 1, never negative.
func TestExpFloat64Mean(t *testing.T) {
	g := NewRNG(23)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := g.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64() = %v < 0", v)
		}
		sum += v
		sq += v * v
	}
	mean := sum / n
	if v := sq/n - mean*mean; math.Abs(mean-1) > 0.01 || math.Abs(v-1) > 0.03 {
		t.Fatalf("ExpFloat64: mean %v, variance %v, want 1 and 1", mean, v)
	}
}

func TestBernoulliEdges(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 100; i++ {
		if g.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !g.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if g.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !g.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	g := NewRNG(11)
	const n = 200000
	const p = 0.3
	hits := 0
	for i := 0; i < n; i++ {
		if g.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) frequency = %v, want within 0.01", p, got)
	}
}

func TestJitterBounds(t *testing.T) {
	g := NewRNG(5)
	f := func(seed uint64) bool {
		x := 100.0
		frac := 0.25
		v := g.Jitter(x, frac)
		return v >= x*(1-frac) && v <= x*(1+frac)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJitterZeroFrac(t *testing.T) {
	g := NewRNG(5)
	if v := g.Jitter(3.5, 0); v != 3.5 {
		t.Fatalf("Jitter(3.5, 0) = %v, want 3.5", v)
	}
	if v := g.Jitter(3.5, -1); v != 3.5 {
		t.Fatalf("Jitter(3.5, -1) = %v, want 3.5", v)
	}
}

func TestSplitIndependence(t *testing.T) {
	g := NewRNG(9)
	child := g.Split()
	// The child stream should not be identical to the parent's
	// continuation.
	same := 0
	for i := 0; i < 100; i++ {
		if child.Uint64() == g.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("child stream collided with parent on %d draws", same)
	}
}

func TestPermIsPermutation(t *testing.T) {
	g := NewRNG(13)
	for n := 1; n <= 20; n++ {
		p := g.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestClockTick(t *testing.T) {
	c := NewClock(0.5)
	if c.Now() != 0 {
		t.Fatalf("new clock Now() = %v, want 0", c.Now())
	}
	c.Tick()
	c.Tick()
	if got := c.Now(); got != 1.0 {
		t.Fatalf("after two 0.5s ticks Now() = %v, want 1.0", got)
	}
	if c.Step() != 2 {
		t.Fatalf("Step() = %d, want 2", c.Step())
	}
}

func TestClockDefaultDT(t *testing.T) {
	c := NewClock(0)
	if c.DT() != DefaultDT {
		t.Fatalf("DT() = %v, want %v", c.DT(), DefaultDT)
	}
	c = NewClock(-1)
	if c.DT() != DefaultDT {
		t.Fatalf("DT() = %v, want %v", c.DT(), DefaultDT)
	}
}

func TestClockNoDrift(t *testing.T) {
	// Accumulating 0.1 a million times drifts; the clock must not.
	c := NewClock(0.1)
	for i := 0; i < 1_000_000; i++ {
		c.Tick()
	}
	want := 100000.0
	if math.Abs(c.Now()-want) > 1e-6 {
		t.Fatalf("after 1e6 ticks Now() = %v, want %v", c.Now(), want)
	}
}

func TestClockString(t *testing.T) {
	c := NewClock(0.05)
	c.Tick()
	if s := c.String(); s == "" {
		t.Fatal("String() returned empty")
	}
}
