package xfer

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"dstune/internal/endpoint"
	"dstune/internal/load"
	"dstune/internal/netem"
)

// testFabric builds a small 8-core source with one 10 Gb/s, 30 ms
// path. Restart times are shortened so tests can use short epochs.
func testFabric(t *testing.T, seed uint64) (*Fabric, *netem.Path) {
	t.Helper()
	f, err := NewFabric(FabricConfig{
		Seed: seed,
		Source: endpoint.Config{
			Cores:        8,
			CorePumpRate: 1.25e9,
			RestartBase:  0.5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := f.AddPath(netem.Config{
		Capacity:   1.25e9,
		BaseRTT:    0.03,
		RandomLoss: 1e-5,
		MaxCwnd:    8 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, p
}

func TestRunSingleEpoch(t *testing.T) {
	f, _ := testFabric(t, 1)
	tr, err := f.NewTransfer(TransferConfig{Name: "t", Bytes: Unbounded})
	if err != nil {
		t.Fatal(err)
	}
	r, err := tr.Run(context.Background(), Params{NC: 4, NP: 4}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bytes <= 0 {
		t.Fatal("no bytes moved")
	}
	if r.Throughput <= 0 || r.BestCase <= 0 {
		t.Fatalf("throughput %v / best %v", r.Throughput, r.BestCase)
	}
	if r.Start != 0 || r.End < 10 || r.End > 10.1 {
		t.Fatalf("epoch bounds [%v, %v], want [0, ~10]", r.Start, r.End)
	}
	if r.Done {
		t.Fatal("unbounded transfer reported done")
	}
	if f.Now() < 10 {
		t.Fatalf("fabric time %v, want >= 10", f.Now())
	}
}

func TestTransferCompletes(t *testing.T) {
	f, _ := testFabric(t, 2)
	tr, err := f.NewTransfer(TransferConfig{Name: "t", Bytes: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for i := 0; i < 100; i++ {
		r, err := tr.Run(context.Background(), Params{NC: 4, NP: 4}, 5)
		if err != nil {
			t.Fatal(err)
		}
		total += r.Bytes
		if r.Done {
			if tr.Remaining() != 0 {
				t.Fatalf("done but Remaining() = %v", tr.Remaining())
			}
			if total < 0.999e9 || total > 1.001e9 {
				t.Fatalf("total bytes %v, want ~1e9", total)
			}
			return
		}
	}
	t.Fatal("transfer never completed")
}

func TestRunAfterDone(t *testing.T) {
	f, _ := testFabric(t, 3)
	tr, _ := f.NewTransfer(TransferConfig{Name: "t", Bytes: 1e8})
	for i := 0; i < 50; i++ {
		r, err := tr.Run(context.Background(), Params{NC: 4, NP: 4}, 5)
		if err != nil {
			t.Fatal(err)
		}
		if r.Done {
			break
		}
	}
	r, err := tr.Run(context.Background(), Params{NC: 4, NP: 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Done || r.Bytes != 0 {
		t.Fatalf("post-done Run = %+v, want done with no bytes", r)
	}
}

func TestRestartPolicies(t *testing.T) {
	f, _ := testFabric(t, 4)
	every, _ := f.NewTransfer(TransferConfig{Name: "every", Bytes: Unbounded})
	r1, _ := every.Run(context.Background(), Params{NC: 2, NP: 2}, 5)
	r2, _ := every.Run(context.Background(), Params{NC: 2, NP: 2}, 5)
	if r1.DeadTime <= 0 || r2.DeadTime <= 0 {
		t.Fatalf("RestartEveryEpoch dead times: %v, %v; want both > 0", r1.DeadTime, r2.DeadTime)
	}
	every.Stop()

	f2, _ := testFabric(t, 4)
	onchg, _ := f2.NewTransfer(TransferConfig{Name: "onchange", Bytes: Unbounded, Policy: RestartOnChange})
	r1, _ = onchg.Run(context.Background(), Params{NC: 2, NP: 2}, 5)
	r2, _ = onchg.Run(context.Background(), Params{NC: 2, NP: 2}, 5)
	r3, _ := onchg.Run(context.Background(), Params{NC: 3, NP: 2}, 5)
	if r1.DeadTime <= 0 {
		t.Fatalf("initial launch dead time = %v, want > 0", r1.DeadTime)
	}
	if r2.DeadTime != 0 {
		t.Fatalf("unchanged params dead time = %v, want 0", r2.DeadTime)
	}
	if r3.DeadTime <= 0 {
		t.Fatalf("changed params dead time = %v, want > 0", r3.DeadTime)
	}
}

func TestBestCaseExceedsObservedWithRestarts(t *testing.T) {
	f, _ := testFabric(t, 5)
	tr, _ := f.NewTransfer(TransferConfig{Name: "t", Bytes: Unbounded})
	tr.Run(context.Background(), Params{NC: 4, NP: 4}, 5)
	r, _ := tr.Run(context.Background(), Params{NC: 4, NP: 4}, 5)
	if r.BestCase <= r.Throughput {
		t.Fatalf("best case %v not above observed %v despite dead time %v",
			r.BestCase, r.Throughput, r.DeadTime)
	}
}

func TestRunErrors(t *testing.T) {
	f, _ := testFabric(t, 6)
	tr, _ := f.NewTransfer(TransferConfig{Name: "t", Bytes: Unbounded})
	if _, err := tr.Run(context.Background(), Params{NC: 1, NP: 1}, 0); err != ErrBadEpoch {
		t.Fatalf("zero epoch: %v, want ErrBadEpoch", err)
	}
	if _, err := tr.Run(context.Background(), Params{NC: 0, NP: 1}, 5); err != ErrBadParams {
		t.Fatalf("nc=0: %v, want ErrBadParams", err)
	}
	tr.Stop()
	if _, err := tr.Run(context.Background(), Params{NC: 1, NP: 1}, 5); err != ErrStopped {
		t.Fatalf("after stop: %v, want ErrStopped", err)
	}
}

func TestNewTransferErrors(t *testing.T) {
	f, err := NewFabric(FabricConfig{Source: endpoint.Config{Cores: 8, CorePumpRate: 1e9}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.NewTransfer(TransferConfig{Bytes: 1e9}); err == nil {
		t.Fatal("transfer on pathless fabric accepted")
	}
	f2, _ := testFabric(t, 7)
	if _, err := f2.NewTransfer(TransferConfig{Bytes: 0}); err == nil {
		t.Fatal("zero-size transfer accepted")
	}
}

func TestNewFabricInvalidSource(t *testing.T) {
	if _, err := NewFabric(FabricConfig{}); err == nil {
		t.Fatal("invalid source accepted")
	}
}

func TestComputeLoadReducesThroughput(t *testing.T) {
	measure := func(cmp int) float64 {
		f, _ := testFabric(t, 8)
		f.SetLoad(load.Constant(load.Load{Cmp: cmp}), nil)
		tr, _ := f.NewTransfer(TransferConfig{Name: "t", Bytes: Unbounded, Policy: RestartOnChange})
		tr.Run(context.Background(), Params{NC: 2, NP: 8}, 10) // warm up
		r, _ := tr.Run(context.Background(), Params{NC: 2, NP: 8}, 20)
		tr.Stop()
		return r.Throughput
	}
	free, loaded := measure(0), measure(16)
	if loaded >= free/2 {
		t.Fatalf("cmp=16 throughput %v not well below free %v", loaded, free)
	}
}

func TestTrafficLoadReducesThroughput(t *testing.T) {
	measure := func(tfr int) float64 {
		f, _ := testFabric(t, 9)
		f.SetLoad(load.Constant(load.Load{Tfr: tfr}), nil)
		tr, _ := f.NewTransfer(TransferConfig{Name: "t", Bytes: Unbounded, Policy: RestartOnChange})
		tr.Run(context.Background(), Params{NC: 2, NP: 8}, 30) // warm up: external flows ramp too
		r, _ := tr.Run(context.Background(), Params{NC: 2, NP: 8}, 30)
		tr.Stop()
		return r.Throughput
	}
	free, loaded := measure(0), measure(32)
	if loaded >= 0.8*free {
		t.Fatalf("tfr=32 throughput %v not well below free %v", loaded, free)
	}
}

func TestMoreConcurrencyHelpsUnderComputeLoad(t *testing.T) {
	measure := func(nc int) float64 {
		f, _ := testFabric(t, 10)
		f.SetLoad(load.Constant(load.Load{Cmp: 16}), nil)
		tr, _ := f.NewTransfer(TransferConfig{Name: "t", Bytes: Unbounded, Policy: RestartOnChange})
		tr.Run(context.Background(), Params{NC: nc, NP: 1}, 10)
		r, _ := tr.Run(context.Background(), Params{NC: nc, NP: 1}, 20)
		tr.Stop()
		return r.Throughput
	}
	low, high := measure(2), measure(32)
	if high <= 2*low {
		t.Fatalf("nc=32 (%v) should far exceed nc=2 (%v) under compute load", high, low)
	}
}

func TestLoadScheduleStep(t *testing.T) {
	f, _ := testFabric(t, 11)
	f.SetLoad(load.Step(15, load.Load{Cmp: 32}, load.Load{}), nil)
	tr, _ := f.NewTransfer(TransferConfig{Name: "t", Bytes: Unbounded, Policy: RestartOnChange})
	rLoaded, _ := tr.Run(context.Background(), Params{NC: 2, NP: 8}, 15)
	tr.Run(context.Background(), Params{NC: 2, NP: 8}, 10) // ramp after load drop
	rFree, _ := tr.Run(context.Background(), Params{NC: 2, NP: 8}, 10)
	tr.Stop()
	if rFree.Throughput <= 2*rLoaded.Throughput {
		t.Fatalf("load release: %v -> %v, want large gain", rLoaded.Throughput, rFree.Throughput)
	}
}

func TestTwoTransfersLockstep(t *testing.T) {
	run := func(seed uint64) (float64, float64) {
		f, _ := testFabric(t, seed)
		a, _ := f.NewTransfer(TransferConfig{Name: "a", Bytes: Unbounded})
		b, _ := f.NewTransfer(TransferConfig{Name: "b", Bytes: Unbounded})
		var wg sync.WaitGroup
		var aBytes, bBytes float64
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				r, err := a.Run(context.Background(), Params{NC: 2, NP: 2}, 5)
				if err != nil {
					t.Error(err)
					return
				}
				aBytes += r.Bytes
			}
			a.Stop()
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				r, err := b.Run(context.Background(), Params{NC: 4, NP: 2}, 5)
				if err != nil {
					t.Error(err)
					return
				}
				bBytes += r.Bytes
			}
			b.Stop()
		}()
		wg.Wait()
		return aBytes, bBytes
	}
	a1, b1 := run(42)
	if a1 <= 0 || b1 <= 0 {
		t.Fatalf("transfers made no progress: %v, %v", a1, b1)
	}
	a2, b2 := run(42)
	if a1 != a2 || b1 != b2 {
		t.Fatalf("concurrent runs not deterministic: (%v,%v) vs (%v,%v)", a1, b1, a2, b2)
	}
}

func TestStopReleasesBarrier(t *testing.T) {
	f, _ := testFabric(t, 12)
	a, _ := f.NewTransfer(TransferConfig{Name: "a", Bytes: Unbounded})
	b, _ := f.NewTransfer(TransferConfig{Name: "b", Bytes: Unbounded})
	done := make(chan struct{})
	go func() {
		// b never runs; stopping it must unblock a.
		b.Stop()
		if _, err := a.Run(context.Background(), Params{NC: 1, NP: 1}, 2); err != nil {
			t.Error(err)
		}
		a.Stop()
		close(done)
	}()
	<-done
}

func TestSecondPath(t *testing.T) {
	f, _ := testFabric(t, 13)
	p2, err := f.AddPath(netem.Config{
		Capacity:   2.5e9,
		BaseRTT:    0.033,
		RandomLoss: 1e-5,
		MaxCwnd:    8 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := f.NewTransfer(TransferConfig{Name: "t", Bytes: Unbounded, Path: p2})
	r, err := tr.Run(context.Background(), Params{NC: 4, NP: 4}, 10)
	if err != nil {
		t.Fatal(err)
	}
	tr.Stop()
	if r.Bytes <= 0 {
		t.Fatal("no progress on second path")
	}
	if tr.path != p2 {
		t.Fatal("transfer not on the path it was given")
	}
}

func TestNowTracksTransferTime(t *testing.T) {
	f, _ := testFabric(t, 14)
	warm, _ := f.NewTransfer(TransferConfig{Name: "warm", Bytes: Unbounded})
	warm.Run(context.Background(), Params{NC: 1, NP: 1}, 5)
	warm.Stop()
	tr, _ := f.NewTransfer(TransferConfig{Name: "t", Bytes: Unbounded})
	if tr.Now() != 0 {
		t.Fatalf("Now() before first Run = %v, want 0", tr.Now())
	}
	r, _ := tr.Run(context.Background(), Params{NC: 1, NP: 1}, 5)
	if r.Start != 0 {
		t.Fatalf("first epoch Start = %v, want 0 (transfer-relative)", r.Start)
	}
	if got := tr.Now(); got < 5 || got > 5.1 {
		t.Fatalf("Now() after one 5s epoch = %v", got)
	}
	tr.Stop()
}

func TestParamsHelpers(t *testing.T) {
	p := Params{NC: 2, NP: 8}
	if p.Streams() != 16 {
		t.Fatalf("Streams = %d", p.Streams())
	}
	if !p.Valid() || (Params{NC: 0, NP: 1}).Valid() || (Params{NC: 1, NP: -1}).Valid() {
		t.Fatal("Valid misbehaves")
	}
	if p.String() != "nc=2 np=8" {
		t.Fatalf("String = %q", p.String())
	}
	if Default() != (Params{NC: 2, NP: 8}) {
		t.Fatalf("Default = %v", Default())
	}
}

func TestRestartPolicyString(t *testing.T) {
	if RestartEveryEpoch.String() != "restart-every-epoch" ||
		RestartOnChange.String() != "restart-on-change" {
		t.Fatal("policy strings")
	}
	if RestartPolicy(99).String() == "" {
		t.Fatal("unknown policy string empty")
	}
}

func TestThirdPartyTrafficNetworkOnly(t *testing.T) {
	// Net load shares the path but, unlike ext.tfr, consumes no
	// source CPU: the restart dead time must stay at the unloaded
	// value while throughput still drops.
	measure := func(l load.Load) (tput, dead float64) {
		f, _ := testFabric(t, 20)
		f.SetLoad(load.Constant(l), nil)
		tr, _ := f.NewTransfer(TransferConfig{Name: "t", Bytes: Unbounded})
		defer tr.Stop()
		tr.Run(context.Background(), Params{NC: 2, NP: 8}, 30) // warm up; externals ramp
		r, err := tr.Run(context.Background(), Params{NC: 2, NP: 8}, 30)
		if err != nil {
			t.Fatal(err)
		}
		return r.Throughput, r.DeadTime
	}
	freeT, freeD := measure(load.Load{})
	netT, netD := measure(load.Load{Net: 48})
	_, tfrD := measure(load.Load{Tfr: 48})
	if netT >= 0.8*freeT {
		t.Fatalf("48 third-party streams barely moved throughput: %v vs %v", netT, freeT)
	}
	if netD != freeD {
		t.Fatalf("third-party traffic changed restart time: %v vs %v", netD, freeD)
	}
	if tfrD <= netD {
		t.Fatalf("ext.tfr restart time %v not above third-party %v", tfrD, netD)
	}
}

func TestByteConservationAcrossRestarts(t *testing.T) {
	// Sum of per-epoch bytes must equal the transfer size exactly,
	// regardless of how often the params change (restarts).
	f, _ := testFabric(t, 31)
	const size = 3e9
	tr, _ := f.NewTransfer(TransferConfig{Name: "t", Bytes: size})
	var sum float64
	nc := 1
	for i := 0; i < 500; i++ {
		r, err := tr.Run(context.Background(), Params{NC: nc, NP: 2}, 4)
		if err != nil {
			t.Fatal(err)
		}
		sum += r.Bytes
		nc = 1 + (i % 5)
		if r.Done {
			if sum < size-1 || sum > size+1 {
				t.Fatalf("accounted %v bytes, want %v", sum, size)
			}
			return
		}
	}
	t.Fatal("never completed")
}

func TestSimultaneousDeterminismViaFabric(t *testing.T) {
	// Two concurrent tuner-style drivers with unequal epochs must
	// still be deterministic per seed.
	run := func() (float64, float64) {
		f, _ := testFabric(t, 33)
		a, _ := f.NewTransfer(TransferConfig{Name: "a", Bytes: Unbounded})
		b, _ := f.NewTransfer(TransferConfig{Name: "b", Bytes: Unbounded})
		var wg sync.WaitGroup
		var ab, bb float64
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				r, _ := a.Run(context.Background(), Params{NC: 1 + i%2, NP: 2}, 3)
				ab += r.Bytes
			}
			a.Stop()
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				r, _ := b.Run(context.Background(), Params{NC: 3, NP: 1}, 4.5)
				bb += r.Bytes
			}
			b.Stop()
		}()
		wg.Wait()
		return ab, bb
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("non-deterministic: (%v,%v) vs (%v,%v)", a1, b1, a2, b2)
	}

	// Two transfers that restart at the same virtual instant, each with
	// a changing NC: the restart dead time counts the processes on the
	// source, so it must not matter which Run reached the fabric first.
	// The second Run of a round is held back until the first has torn
	// down and is waiting at the barrier.
	lockstep := func(bFirst bool) (ab, bb float64) {
		f, _ := testFabric(t, 33)
		a, _ := f.NewTransfer(TransferConfig{Name: "a", Bytes: Unbounded})
		b, _ := f.NewTransfer(TransferConfig{Name: "b", Bytes: Unbounded})
		defer a.Stop()
		defer b.Stop()
		for i := 0; i < 6; i++ {
			first, second := a, b
			pf, ps := Params{NC: 1 + 3*(i%2), NP: 2}, Params{NC: 6 - 2*(i%3), NP: 1}
			if bFirst {
				first, second, pf, ps = b, a, ps, pf
			}
			var wg sync.WaitGroup
			var rf Report
			wg.Add(1)
			go func() {
				defer wg.Done()
				rf, _ = first.Run(context.Background(), pf, 3)
			}()
			for waiting := false; !waiting; {
				f.mu.Lock()
				waiting = first.target > f.clock.Now()
				f.mu.Unlock()
				runtime.Gosched()
			}
			rs, _ := second.Run(context.Background(), ps, 3)
			wg.Wait()
			if bFirst {
				rf, rs = rs, rf
			}
			ab += rf.Bytes
			bb += rs.Bytes
		}
		return ab, bb
	}
	a1, b1 = lockstep(false)
	a2, b2 = lockstep(true)
	if a1 != a2 || b1 != b2 {
		t.Fatalf("arrival order changed the result: a first (%v,%v), b first (%v,%v)", a1, b1, a2, b2)
	}
}
