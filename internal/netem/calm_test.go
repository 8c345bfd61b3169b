package netem

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"dstune/internal/sim"
	"dstune/internal/tcpmodel"
)

// calmWant is which Steps of a shape must take the calm path.
type calmWant int

const (
	calmAny   calmWant = iota // no requirement
	calmEvery                 // every Step
	calmNever                 // no Step
	calmLater                 // not the first Step, but a later one
)

// calmShape is one path and population of TestCalmStepIsExact.
type calmShape struct {
	name   string
	cfg    Config
	flows  []int     // streams of each flow attached before the first step
	caps   []float64 // each flow's cap, cycled over the flows; nil leaves none
	mutate bool      // attach, remove and cap flows as runEquiv does
	steps  int
	want   calmWant
	queue  float64 // bytes queued before the first Step
	clock  float64 // every flow's loss clock before the first Step, if set
	window float64 // every stream's window before the first Step, if set
	atCap  bool    // the flows' rates must some time sum to exactly the capacity
}

// path returns a path of the shape, seeded by seed, its flows on alg.
func (sh calmShape) path(seed uint64, alg tcpmodel.Algorithm) *Path {
	p := New(sh.cfg, sim.NewRNG(seed))
	for i, n := range sh.flows {
		f := p.NewFlow(n, alg)
		if sh.caps != nil {
			f.SetCap(sh.caps[i%len(sh.caps)])
		}
		if sh.clock > 0 {
			f.clock = sh.clock
		}
		if sh.window > 0 {
			for j := range f.strs {
				f.strs[j].tcp.Cwnd = sh.window
			}
		}
	}
	p.queue = sh.queue
	return p
}

// allCalmShapes are calmShapes and capShapes as calmShapes.
func allCalmShapes() []calmShape {
	shapes := slices.Clone(calmShapes)
	for _, sh := range capShapes {
		shapes = append(shapes, calmShape{name: sh.name, cfg: sh.cfg, flows: sh.flows, mutate: sh.mutate, steps: sh.steps})
	}
	return shapes
}

// calmShapes are the shapes whose Steps are calm, or only just not.
var calmShapes = []calmShape{
	{name: "figure mix", cfg: figUChicago, flows: repeat(24, 3), caps: []float64{mixCap}, steps: 300, want: calmEvery},
	{name: "64 capped single-stream flows", cfg: figUChicago, flows: repeat(64, 1), caps: []float64{5e7}, steps: 150, want: calmEvery},
	{name: "two clocks out in one substep", cfg: Config{Capacity: 1.25e8, BaseRTT: 0.005, RandomLoss: 1e-4, MaxCwnd: 1 << 20},
		flows: []int{2, 2}, caps: []float64{1e7}, steps: 300, want: calmEvery, clock: 1e-12},
	{name: "bound on the capacity", cfg: figUChicago, flows: []int{8, 8}, caps: []float64{figUChicago.Capacity / 2}, steps: 150, want: calmEvery, atCap: true},
	{name: "entered with a queue", cfg: figUChicago, flows: repeat(4, 3), caps: []float64{mixCap}, steps: 150, want: calmLater,
		queue: figUChicago.Capacity * figUChicago.BaseRTT / 2},
	{name: "MaxCwnd = 0", cfg: Config{Capacity: 5e9, BaseRTT: 0.012, RandomLoss: 5e-6}, flows: repeat(4, 3), caps: []float64{mixCap}, steps: 150, want: calmNever},
	{name: "blocked flows", cfg: figUChicago, flows: []int{16, 16, 3}, caps: []float64{-1, -1, 0}, steps: 150, want: calmEvery},
	// NewFlow's jitter leaves a window up to 1.3 times MaxCwnd when the
	// cap is under 13 segments. Only a window above the cap keeps the
	// first Step from being calm here.
	{name: "windows born above MaxCwnd", cfg: Config{Capacity: 3.1e5, BaseRTT: 0.02, RandomLoss: 1e-3, MaxCwnd: 2000},
		flows: []int{3}, steps: 300, want: calmLater, window: 2600},
}

// TestCalmStepIsExact holds refStep, the round-trip walk calm Steps took
// before their closed form and the reference TestCalmLawMatchesReference
// holds that form to, to the substep loop bit for bit: it steps two
// identically seeded paths side by side, one through refStep and one
// through walkEveryStream, the substep loop that visits every stream,
// over capShapes and calmShapes — the figure mix, 64 capped
// single-stream flows, two loss clocks running out in one substep, caps
// summing to exactly the capacity, a Step entered with a queue,
// uncapped windows, blocked flows, and windows born above MaxCwnd — and
// requires, after every Step, each stream's window and
// loss count, each flow's offered and delivered rates, delivered bytes
// and loss clock, the queue, the path's delivered rate and its clock to
// be bit-equal. It counts the Steps that took the calm path, and each
// calm shape must have taken it as its want says.
// NETEM_EQUIV_SEEDS runs more seeds.
func TestCalmStepIsExact(t *testing.T) {
	seeds := equivSeeds(16)
	for ci, sh := range allCalmShapes() {
		calm, steps, atCap := 0, 0, false
		for seed := 0; seed < seeds; seed++ {
			where := fmt.Sprintf("%s, seed %d", sh.name, seed)
			a, b := sh.path(uint64(seed), tcpmodel.NewHTCP()), sh.path(uint64(seed), tcpmodel.NewHTCP())
			chooseA, chooseB := sim.NewRNG(uint64(700+ci)), sim.NewRNG(uint64(700+ci))
			for step := 0; step < sh.steps; step++ {
				if sh.mutate {
					mutatePath(chooseA, a)
					mutatePath(chooseB, b)
				}
				dt := equivDTs[chooseA.IntN(len(equivDTs))]
				chooseB.IntN(len(equivDTs))
				isCalm := a.begin()
				refStep(a, dt)
				walkEveryStream(b, dt)
				if err := sameState(a, b); err != nil {
					t.Fatalf("%s: step %d (calm %v): %v", where, step, isCalm, err)
				}
				switch {
				case sh.want == calmEvery && !isCalm:
					t.Fatalf("%s: step %d was not calm", where, step)
				case sh.want == calmNever && isCalm:
					t.Fatalf("%s: step %d was calm", where, step)
				case sh.want == calmLater && step == 0 && isCalm:
					t.Fatalf("%s: the first step was calm", where)
				}
				if sh.clock > 0 && step == 0 {
					for i, f := range a.flows {
						if losses(f) == 0 {
							t.Fatalf("%s: flow %d's clock did not run out in the first substep", where, i)
						}
					}
				}
				if isCalm {
					calm++
				}
				steps++
				atCap = atCap || a.lastTotal == sh.cfg.Capacity
			}
		}
		t.Logf("%s: %d of %d steps calm", sh.name, calm, steps)
		if sh.want == calmLater && calm == 0 {
			t.Errorf("%s: no step was calm", sh.name)
		}
		if sh.atCap && !atCap {
			t.Errorf("%s: the flows' rates never summed to the capacity", sh.name)
		}
	}
}

// TestCalmStepOnEveryShape runs Step, closed-form calm Steps and all,
// over TestCalmStepIsExact's shapes for each of the four CC laws — a
// cap within two MSS, windows born above MaxCwnd, loss clocks run out
// at birth, blocked flows, flows arriving and leaving — and requires
// every Step to end: each flow's delivered bytes finite and never
// falling, its loss clock positive, and each window, moved to the
// Step's end, finite and positive.
func TestCalmStepOnEveryShape(t *testing.T) {
	for ci, sh := range allCalmShapes() {
		for _, alg := range equivAlgs {
			for seed := uint64(0); seed < 8; seed++ {
				where := fmt.Sprintf("%s, %s, seed %d", sh.name, alg.Name(), seed)
				p := sh.path(seed, alg)
				choose := sim.NewRNG(uint64(900 + ci))
				for step := 0; step < sh.steps; step++ {
					if sh.mutate {
						mutatePath(choose, p)
					}
					before := make([]float64, len(p.flows))
					for i, f := range p.flows {
						before[i] = f.delivered
					}
					p.Step(equivDTs[choose.IntN(len(equivDTs))])
					for i, f := range p.flows {
						if f.laws {
							f.sync(p.now)
						}
						if !(f.delivered >= before[i]) || math.IsInf(f.delivered, 0) || !(f.clock > 0) {
							t.Fatalf("%s: step %d flow %d: delivered %v after %v, loss clock %v", where, step, i, f.delivered, before[i], f.clock)
						}
						for j := range f.strs {
							if w := f.strs[j].tcp.Cwnd; !(w > 0) || math.IsInf(w, 0) {
								t.Fatalf("%s: step %d flow %d stream %d: window %v", where, step, i, j, w)
							}
						}
					}
				}
			}
		}
	}
}
