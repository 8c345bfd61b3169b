package tuner

import (
	"context"
	"reflect"
	"testing"

	"dstune/internal/obs"
	"dstune/internal/xfer"
)

// kernelCfg is the shared configuration of the kernel-aware tests: a
// 1-D box with a 10% ε so a 50% dip is unambiguously significant.
func kernelCfg(observer *obs.Observer) Config {
	cfg := simCfg()
	cfg.Tolerance = 10
	if observer != nil {
		cfg.Obs = observer.Session("ka")
	}
	return cfg
}

// kernelAwareCS is kernel-aware:cs-tuner under cfg, as its own type.
func kernelAwareCS(cfg Config) *KernelAwareStrategy {
	return NewKernelAware(NewCSStrategy(cfg), cfg)
}

// settle drives s with a constant fitness until the inner search
// converges to its monitor phase (the proposal stops moving), then
// returns the incumbent vector.
func settle(t *testing.T, s Strategy, fitness float64) []int {
	t.Helper()
	var x []int
	stable := 0
	for i := 0; i < 200; i++ {
		nx, done := s.Propose()
		if done {
			t.Fatal("strategy finished during settling")
		}
		if reflect.DeepEqual(nx, x) {
			stable++
			if stable >= 5 {
				return x
			}
		} else {
			stable = 0
		}
		x = nx
		s.Observe(xfer.Report{Throughput: fitness, BestCase: fitness})
	}
	t.Fatal("search did not settle in 200 epochs")
	return nil
}

// retriggers counts RetriggerEpsilon events recorded so far.
func retriggers(observer *obs.Observer) int {
	n := 0
	for _, ev := range observer.Recorder().Events() {
		if ev.Type == obs.EventRetriggerEpsilon {
			n++
		}
	}
	return n
}

// TestKernelAwareRegistration: the prefix registers over every
// registry row, refuses to nest, and names itself for its inner
// strategy.
func TestKernelAwareRegistration(t *testing.T) {
	if !KnownStrategy("kernel-aware:cs-tuner") {
		t.Fatal("kernel-aware:cs-tuner unknown")
	}
	for _, bad := range []string{
		"kernel-aware:kernel-aware:cs-tuner",
		"kernel-aware:bogus",
		"kernel-aware:",
	} {
		if KnownStrategy(bad) {
			t.Fatalf("KnownStrategy(%q) = true", bad)
		}
		if _, err := NewStrategy(bad, kernelCfg(nil)); err == nil {
			t.Fatalf("NewStrategy(%q) succeeded", bad)
		}
	}
	s, err := NewStrategy("kernel-aware:default", kernelCfg(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*KernelAwareStrategy); !ok || s.Name() != "kernel-aware:default" {
		t.Fatalf("NewStrategy built a %T named %q", s, s.Name())
	}
}

// TestKernelAwareDampsRetransDips: once the inner cs-tuner is in its
// monitor phase, a significant dip accompanied by kernel-reported
// retransmissions is damped — no retrigger, incumbent held — for at
// most kernelDampCap consecutive epochs, after which the dip passes
// through and the search restarts.
func TestKernelAwareDampsRetransDips(t *testing.T) {
	observer := obs.NewObserver(obs.ObserverConfig{})
	s := kernelAwareCS(kernelCfg(observer))
	const base = 100e6
	incumbent := settle(t, s, base)
	before := retriggers(observer)

	lossyDip := xfer.Report{
		Throughput: base / 2, BestCase: base / 2,
		Kernel: &xfer.KernelStats{RetransDelta: 7},
	}
	for i := 1; i <= kernelDampCap; i++ {
		s.Observe(lossyDip)
		if got := s.Damped(); got != i {
			t.Fatalf("after lossy dip %d: Damped() = %d, want %d", i, got, i)
		}
		if retriggers(observer) != before {
			t.Fatalf("lossy dip %d retriggered the search", i)
		}
		if x, _ := s.Propose(); !reflect.DeepEqual(x, incumbent) {
			t.Fatalf("lossy dip %d moved the proposal to %v (incumbent %v)", i, x, incumbent)
		}
	}

	// Past the cap the dip is real no matter what the kernel says.
	s.Observe(lossyDip)
	if got := s.Damped(); got != 0 {
		t.Fatalf("after capped dip: Damped() = %d, want 0", got)
	}
	if retriggers(observer) != before+1 {
		t.Fatal("dip beyond the damp cap did not retrigger the search")
	}
}

// TestKernelAwarePassesThroughCleanDips: a significant dip with no
// retransmissions (the paper's CPU-contention case) or with no kernel
// samples at all (Sim fabric) retriggers immediately.
func TestKernelAwarePassesThroughCleanDips(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kernel *xfer.KernelStats
	}{
		{"no-samples", nil},
		{"no-retrans", &xfer.KernelStats{RetransDelta: 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			observer := obs.NewObserver(obs.ObserverConfig{})
			s := kernelAwareCS(kernelCfg(observer))
			const base = 100e6
			settle(t, s, base)
			before := retriggers(observer)
			s.Observe(xfer.Report{Throughput: base / 2, BestCase: base / 2, Kernel: tc.kernel})
			if s.Damped() != 0 {
				t.Fatalf("clean dip was damped")
			}
			if retriggers(observer) != before+1 {
				t.Fatal("clean dip did not retrigger the search")
			}
		})
	}
}

// TestKernelAwareRecoveryKeepsBaseline: a damped dip must not poison
// the wrapper's baseline — when throughput recovers to the pre-dip
// level the recovery is not itself a significant change.
func TestKernelAwareRecoveryKeepsBaseline(t *testing.T) {
	observer := obs.NewObserver(obs.ObserverConfig{})
	s := kernelAwareCS(kernelCfg(observer))
	const base = 100e6
	settle(t, s, base)
	before := retriggers(observer)
	s.Observe(xfer.Report{Throughput: base / 2, BestCase: base / 2, Kernel: &xfer.KernelStats{RetransDelta: 3}})
	s.Observe(xfer.Report{Throughput: base, BestCase: base})
	if s.Damped() != 0 {
		t.Fatal("recovery left the wrapper damped")
	}
	if retriggers(observer) != before {
		t.Fatal("recovery from a damped dip retriggered the search")
	}
}

// logging wraps a Strategy and logs every epoch it plays — the
// proposal and the report it observed — as a checkpoint's epoch log.
type logging struct {
	Strategy
	x   []int
	log []EpochRecord
}

func (l *logging) Propose() ([]int, bool) {
	x, done := l.Strategy.Propose()
	l.x = x
	return x, done
}

func (l *logging) Observe(rep xfer.Report) {
	l.log = append(l.log, EpochRecord{X: l.x, Report: rep})
	l.Strategy.Observe(rep)
}

// TestKernelAwareSnapshotRoundTrip: a checkpoint whose log ends in a
// damped dip resumes mid-damp — the replay rebuilds the damp count, the
// baseline and the inner search, so the resumed wrapper proposes what
// the original would and damps exactly one more epoch.
func TestKernelAwareSnapshotRoundTrip(t *testing.T) {
	cfg := kernelCfg(nil)
	s := &logging{Strategy: kernelAwareCS(cfg)}
	const base = 100e6
	incumbent := settle(t, s, base)
	s.Observe(xfer.Report{Throughput: base / 2, BestCase: base / 2, Kernel: &xfer.KernelStats{RetransDelta: 1}})

	r := kernelAwareCS(cfg)
	ck := &Checkpoint{Version: CheckpointVersion, Tuner: r.Name(), Seed: cfg.Seed, Epochs: len(s.log), Trace: s.log}
	if _, err := NewSessionRuntime(FleetConfig{Epoch: cfg.Epoch}, FleetSession{
		Strategy: r, Transfers: []xfer.Transferer{newFake(peaked(10))}, Maps: []ParamMap{cfg.Map}, Resume: ck,
	}); err != nil {
		t.Fatal(err)
	}
	if r.Damped() != 1 {
		t.Fatalf("resumed Damped() = %d, want 1", r.Damped())
	}
	if x, _ := r.Propose(); !reflect.DeepEqual(x, incumbent) {
		t.Fatalf("resumed proposal = %v, want %v", x, incumbent)
	}
	r.Observe(xfer.Report{Throughput: base / 2, BestCase: base / 2, Kernel: &xfer.KernelStats{RetransDelta: 1}})
	if r.Damped() != 2 {
		t.Fatalf("resumed wrapper Damped() = %d after second dip, want 2", r.Damped())
	}
}

// lossyFake is a fake transfer whose epochs, once lossy is set, run at
// half rate and report what a real-socket dataset epoch would: a kernel
// sample showing retransmissions and a first-byte lag.
type lossyFake struct {
	fake
	lossy bool
}

func (f *lossyFake) Run(ctx context.Context, p xfer.Params, epoch float64) (xfer.Report, error) {
	rep, err := f.fake.Run(ctx, p, epoch)
	if f.lossy && err == nil {
		rep.Throughput /= 2
		rep.BestCase /= 2
		rep.Kernel = &xfer.KernelStats{RetransDelta: 7}
		rep.FirstByteLag = 0.02
	}
	return rep, err
}

// TestKernelAwareUnderSessionRuntime: a single-transfer session's
// aggregate report carries the transfer's kernel sample and first-byte
// lag through the Fleet's epoch loop, so under SessionRuntime (and the
// daemon built on it) a kernel-aware strategy damps a lossy dip and the
// first-byte-lag histogram moves, exactly as under Run.
func TestKernelAwareUnderSessionRuntime(t *testing.T) {
	observer := obs.NewObserver(obs.ObserverConfig{})
	cfg := kernelCfg(observer)
	s := kernelAwareCS(cfg)
	flat := func(xfer.Params, float64) float64 { return 100e6 }
	transfer := &lossyFake{fake: *newFake(flat)}
	rt, err := NewSessionRuntime(FleetConfig{Epoch: cfg.Epoch, Obs: observer}, FleetSession{
		ID: "ka", Strategy: s, Transfers: []xfer.Transferer{transfer}, Maps: []ParamMap{cfg.Map},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Step until the search has settled into its monitor phase.
	var x []int
	for stable := 0; stable < 5; {
		if rt.Epochs() > 200 {
			t.Fatal("search did not settle in 200 epochs")
		}
		if info := rt.Step(ctx); info.Done {
			t.Fatalf("session ended while settling: %+v", info)
		}
		if reflect.DeepEqual(rt.LastX(), x) {
			stable++
		} else {
			stable, x = 0, append([]int(nil), rt.LastX()...)
		}
	}
	before := retriggers(observer)
	lag := observer.Registry().Histogram(obs.MetricFirstByteLag, "", obs.DefaultLatencyBuckets)
	if _, n := lag.SumCount(); n != 0 {
		t.Fatalf("first-byte-lag histogram holds %d samples before any lag was reported", n)
	}

	transfer.lossy = true
	rt.Step(ctx)
	if got := s.Damped(); got != 1 {
		t.Fatalf("after a lossy dip under SessionRuntime: Damped() = %d, want 1 (the kernel sample did not reach the strategy)", got)
	}
	if retriggers(observer) != before {
		t.Fatal("a lossy dip retriggered the search under SessionRuntime")
	}
	if sum, n := lag.SumCount(); n != 1 || sum != 0.02 {
		t.Fatalf("first-byte-lag histogram holds %d samples summing to %g, want one of 0.02", n, sum)
	}
}
