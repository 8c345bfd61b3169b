package xfer

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"

	"dstune/internal/dataset"
	"dstune/internal/endpoint"
	"dstune/internal/load"
	"dstune/internal/netem"
	"dstune/internal/sim"
)

// everyRoundStep is Fabric.stepLocked with the scheduling round it had
// before the round kept sleepers' demands and caps: every step builds
// every process's demand from its flow, solves the round with Allocate,
// and caps every flow. TestFabricSleepIsExact holds stepLocked to it bit
// for bit.
func everyRoundStep(f *Fabric) {
	now := f.clock.Now()
	dt := f.clock.DT()
	for _, tr := range f.transfers {
		if tr.restarted {
			tr.restarted = false
			tr.deadUntil = now + f.src.RestartTime(f.totalProcsLocked()+tr.params.NC)
		}
	}
	if l := f.extSched.At(now); l != f.curLoad {
		f.applyLoadLocked(l)
	}
	for _, tr := range f.transfers {
		if tr.done || tr.stopped || tr.flows != nil {
			continue
		}
		if tr.started && now >= tr.deadUntil-1e-9 {
			tr.launchLocked()
		}
	}
	for _, tr := range f.transfers {
		if tr.disk != nil && tr.flows != nil && !tr.done && !tr.stopped {
			tr.disk.assign(now, tr.params.Pipelining())
		}
	}
	demands := f.demands[:0]
	for _, tr := range f.transfers {
		for _, fl := range tr.flows {
			demands = append(demands, demand(fl))
		}
	}
	for _, fl := range f.extFlows {
		demands = append(demands, demand(fl))
	}
	f.demands = demands
	if len(demands) > 0 {
		caps := f.src.Allocate(demands)
		for _, tr := range f.transfers {
			for i, fl := range tr.flows {
				c := caps[0]
				if tr.disk != nil {
					c = tr.disk.capFor(i, now, c)
				}
				setCap(fl, c)
				caps = caps[1:]
			}
		}
		for i, fl := range f.extFlows {
			setCap(fl, caps[i])
		}
	}
	for _, p := range f.paths {
		p.Step(dt)
	}
	for _, tr := range f.transfers {
		if tr.done || tr.stopped {
			continue
		}
		if tr.flows == nil {
			if tr.started {
				tr.epochDead += dt
			}
			continue
		}
		var moved float64
		for i, fl := range tr.flows {
			delta := fl.Delivered() - tr.prevFlow[i]
			tr.prevFlow[i] = fl.Delivered()
			if tr.disk != nil {
				moved += tr.disk.consume(i, delta)
			} else {
				moved += delta
			}
		}
		if moved > tr.remaining {
			moved = tr.remaining
		}
		tr.epochBytes += moved
		tr.moved += moved
		tr.remaining -= moved
		finished := tr.remaining <= 0
		if tr.disk != nil {
			finished = tr.disk.finished()
		}
		if finished {
			tr.remaining = 0
			tr.done = true
			tr.teardownLocked()
		}
	}
	f.clock.Tick()
}

// sleepFabric returns a fabric of two paths, the figure set's two
// testbeds, whose load changes every 20 s — compute jobs come and go,
// and external transfer and third-party flows with them — carrying five
// transfers: an unbounded one, and bounded ones that finish while the
// load changes, on both paths, and a disk one.
func sleepFabric(tb testing.TB, seed uint64) *Fabric {
	tb.Helper()
	f, err := NewFabric(FabricConfig{DT: 0.1, Seed: seed, Source: endpoint.Config{Cores: 8, CorePumpRate: 1.3e9, NICRate: 5e9, RestartBase: 0.5}})
	if err != nil {
		tb.Fatal(err)
	}
	uc, err := f.AddPath(netem.Config{Capacity: 5e9, BaseRTT: 0.012, RandomLoss: 5e-6, MaxCwnd: 4 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	tacc, err := f.AddPath(netem.Config{Capacity: 2.5e9, BaseRTT: 0.033, RandomLoss: 5e-6, MaxCwnd: 4 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	var segs []load.Segment
	for i, l := range []load.Load{{Tfr: 16, Cmp: 16}, {}, {Tfr: 4, Cmp: 64}, {Tfr: 16, Net: 2}, {Cmp: 4}, {Tfr: 64, Cmp: 16}} {
		segs = append(segs, load.Segment{Start: 20 * float64(i), Load: l})
	}
	f.SetLoad(load.Piecewise(segs...), uc)
	for _, tc := range []TransferConfig{
		{Path: uc, Bytes: Unbounded, Policy: RestartOnChange},
		{Path: uc, Bytes: 2.5e10, Policy: RestartOnChange},
		{Path: tacc, Files: dataset.Uniform(40, 1<<30), Policy: RestartOnChange},
		{Path: uc, Bytes: 1e10, Policy: RestartOnChange},
		{Path: tacc, Bytes: 1.5e10, Policy: RestartOnChange},
	} {
		if _, err := f.NewTransfer(tc); err != nil {
			tb.Fatal(err)
		}
	}
	return f
}

// launch starts tr on p as Run does before it steps: the transfer is
// restarted, and waits for no one.
func launch(tr *Sim, p Params) {
	if !tr.started {
		tr.started, tr.startTime = true, tr.f.clock.Now()
	}
	tr.params = p
	tr.restartLocked()
	tr.target = math.Inf(1)
}

// sameFabric reports the first difference between a and b in a
// transfer's bytes or state, or a flow's delivered bytes, loss clock,
// cap or offered rate.
func sameFabric(a, b *Fabric) error {
	same := func(what string, x, y float64) error {
		if math.Float64bits(x) != math.Float64bits(y) {
			return fmt.Errorf("%s %v, reference %v", what, x, y)
		}
		return nil
	}
	for i, ta := range a.transfers {
		tb := b.transfers[i]
		for _, err := range []error{
			same("moved", ta.moved, tb.moved), same("remaining", ta.remaining, tb.remaining),
			same("epoch bytes", ta.epochBytes, tb.epochBytes), same("dead time", ta.epochDead, tb.epochDead),
		} {
			if err != nil {
				return fmt.Errorf("transfer %d: %w", i, err)
			}
		}
		if ta.done != tb.done || len(ta.flows) != len(tb.flows) {
			return fmt.Errorf("transfer %d: done %v with %d flows, reference %v with %d", i, ta.done, len(ta.flows), tb.done, len(tb.flows))
		}
	}
	flows := func(f *Fabric) []*netem.Flow {
		var fl []*netem.Flow
		for _, tr := range f.transfers {
			fl = append(fl, tr.flows...)
		}
		return append(fl, f.extFlows...)
	}
	fa, fb := flows(a), flows(b)
	if len(fa) != len(fb) {
		return fmt.Errorf("%d processes, reference %d", len(fa), len(fb))
	}
	for i := range fa {
		for _, err := range []error{
			same("delivered", fa[i].Delivered(), fb[i].Delivered()), same("offered", fa[i].OfferedRate(), fb[i].OfferedRate()),
		} {
			if err != nil {
				return fmt.Errorf("process %d: %w", i, err)
			}
		}
	}
	return nil
}

// fabricCounts counts what TestFabricSleepIsExact must reach: rounds
// that kept the last round's caps without solving, rounds solved with a
// stale demand in them, a stale demand not clear of the level of the
// round solved with it, flow-Steps slept through, and a bounded transfer
// finishing with its flows asleep.
type fabricCounts struct {
	kept, staleSolved, staleTaken, slept, finishedAsleep int
}

// TestFabricSleepIsExact holds a fabric step whose scheduling round keeps
// sleepers' demands and caps to everyRoundStep, which takes every demand
// up and caps every flow each step, bit for bit: it steps two identically
// seeded sleepFabrics side by side while the load changes under them and
// their transfers restart now and then with other parameters, and after
// every step the two must agree as sameFabric says. Over all steps every
// case fabricCounts names must have been reached. NETEM_EQUIV_SEEDS runs
// more seeds.
func TestFabricSleepIsExact(t *testing.T) {
	seeds := equivSeeds(8, 4)
	var fc fabricCounts
	for seed := 0; seed < seeds; seed++ {
		a, b := sleepFabric(t, uint64(seed)), sleepFabric(t, uint64(seed))
		params := []Params{{NC: 8, NP: 1}, {NC: 1, NP: 4}, {NC: 4, NP: 2}, {NC: 1, NP: 1}, {NC: 1, NP: 2}}
		for i := range a.transfers {
			launch(a.transfers[i], params[i])
			launch(b.transfers[i], params[i])
		}
		choose := sim.NewRNG(uint64(5601 + seed))
		for step := 0; step < 1300; step++ {
			if choose.Float64() < 0.004 {
				i := choose.IntN(len(a.transfers))
				p := Params{NC: 1 + choose.IntN(24), NP: 1 + choose.IntN(3)}
				if !a.transfers[i].done {
					launch(a.transfers[i], p)
					launch(b.transfers[i], p)
				}
			}
			before := fc.before(a)
			a.stepLocked()
			everyRoundStep(b)
			fc.after(a, before)
			if err := sameFabric(a, b); err != nil {
				t.Fatalf("seed %d: step %d: %v", seed, step, err)
			}
		}
	}
	t.Logf("%+v", fc)
	for _, c := range []struct {
		what string
		n    int
	}{
		{"rounds kept without solving", fc.kept}, {"rounds solved with a stale demand", fc.staleSolved},
		{"stale demands not clear of the level", fc.staleTaken}, {"flow-Steps slept through", fc.slept},
		{"bounded transfers finishing with their flows asleep", fc.finishedAsleep},
	} {
		if c.n == 0 {
			t.Errorf("no %s", c.what)
		}
	}
}

// fabricRound is what fabricCounts reads of a fabric before a step:
// whether its round keeps the last round's processes and caps, the
// stale demands it holds, and the transfers whose flows all slept
// through the last step.
type fabricRound struct {
	steady, keeps bool
	stale         []endpoint.Demand
	asleep        []bool
}

// before reads f before a step.
func (fc *fabricCounts) before(f *Fabric) fabricRound {
	r := fabricRound{steady: !f.regroup && f.extSched.At(f.clock.Now()) == f.curLoad}
	for _, tr := range f.transfers {
		r.steady = r.steady && (tr.flows != nil || tr.done)
	}
	r.keeps = r.steady && f.src.Reuses(f.demands, f.changed)
	for i, st := range f.stale {
		if st && r.steady {
			r.stale = append(r.stale, f.demands[i])
		}
	}
	for _, tr := range f.transfers {
		all := len(tr.flows) > 0
		for _, fl := range tr.flows {
			all = all && fl.Slept()
		}
		r.asleep = append(r.asleep, all)
	}
	return r
}

// after counts what the step just taken reached, from r, read before it.
func (fc *fabricCounts) after(f *Fabric, r fabricRound) {
	switch {
	case r.keeps:
		fc.kept++
	case r.steady && len(r.stale) > 0:
		fc.staleSolved++
		for _, d := range r.stale {
			if !f.src.Clear(d) {
				fc.staleTaken++
			}
		}
	}
	for i, tr := range f.transfers {
		if tr.done && r.asleep[i] {
			fc.finishedAsleep++
		}
		for _, fl := range tr.flows {
			if fl.Slept() {
				fc.slept++
			}
		}
	}
}

// equivSeeds is how many seeds a lockstep test takes: NETEM_EQUIV_SEEDS
// when set (CI's long form runs 1000), and otherwise def, or short under
// the race detector, as netem's lockstep tests take them.
func equivSeeds(def, short int) int {
	if n, err := strconv.Atoi(os.Getenv("NETEM_EQUIV_SEEDS")); err == nil && n > 1 {
		return n
	}
	if raceEnabled {
		return short
	}
	return def
}
