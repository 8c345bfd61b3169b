package tuner

import (
	"context"
	"reflect"
	"testing"

	"dstune/internal/obs"
	"dstune/internal/xfer"
)

// isolationSessions builds one doomed session (fatal transfer error on
// its second epoch) among healthy finite-volume siblings.
func isolationSessions(t *testing.T) []FleetSession {
	t.Helper()
	cfg := cfg1D(0)
	sessions := []FleetSession{{
		Name:      "doomed",
		Strategy:  mustStrategy(t, cfg),
		Transfers: []xfer.Transferer{&fake{remaining: 1e18, g: peaked(10), failAfter: 2}},
		Maps:      []ParamMap{cfg.Map},
	}}
	for _, name := range []string{"healthy-1", "healthy-2", "healthy-3"} {
		sessions = append(sessions, FleetSession{
			Name:      name,
			Strategy:  mustStrategy(t, cfg),
			Transfers: []xfer.Transferer{&fake{remaining: 2e10, g: peaked(16)}},
			Maps:      []ParamMap{cfg.Map},
		})
	}
	return sessions
}

func mustStrategy(t *testing.T, cfg Config) Strategy {
	t.Helper()
	s, err := NewStrategy("cs-tuner", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFleetFailureIsolation: one session's fatal transfer error must not
// abort its siblings, which must still move every byte of their finite
// volumes.
func TestFleetFailureIsolation(t *testing.T) {
	results, err := NewFleet(FleetConfig{Epoch: 10}, isolationSessions(t)...).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Fatal("doomed session did not fail")
	}
	for _, r := range results[1:] {
		if r.Err != nil {
			t.Errorf("sibling %s aborted: %v", r.ID, r.Err)
		}
		if r.Bytes != 2e10 {
			t.Errorf("sibling %s moved %.0f bytes, want 2e10", r.ID, r.Bytes)
		}
	}
}

// TestFleetMatchesSoloSessions pins that running sessions side by side
// is purely a scheduling matter: sessions over independent
// deterministic transfers produce, through Fleet.Run, the traces each
// produces when stepped alone through NewSessionRuntime, in declaration
// order.
func TestFleetMatchesSoloSessions(t *testing.T) {
	build := func() []FleetSession {
		cfg := cfg1D(0)
		var sessions []FleetSession
		for i, peak := range []int{8, 12, 16, 24, 32} {
			sessions = append(sessions, FleetSession{
				Name:      "s-" + string(rune('a'+i)),
				Strategy:  mustStrategy(t, cfg),
				Transfers: []xfer.Transferer{&fake{remaining: 2e10, g: peaked(peak)}},
				Maps:      []ParamMap{cfg.Map},
			})
		}
		return sessions
	}
	fleet, err := NewFleet(FleetConfig{Epoch: 10}, build()...).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range build() {
		rt, err := NewSessionRuntime(FleetConfig{Epoch: 10}, spec)
		if err != nil {
			t.Fatal(err)
		}
		for !rt.Done() {
			rt.Step(context.Background())
		}
		solo := rt.Result()
		if solo.ID != fleet[i].ID {
			t.Fatalf("result order differs: fleet has %q where %q was declared", fleet[i].ID, solo.ID)
		}
		if solo.Err != nil || fleet[i].Err != nil {
			t.Fatalf("session %s: solo error %v, fleet error %v", solo.ID, solo.Err, fleet[i].Err)
		}
		if len(solo.Traces[0].Results) == 0 || !reflect.DeepEqual(solo.Traces, fleet[i].Traces) {
			t.Errorf("session %s: fleet trace differs from the trace of the session stepped alone", solo.ID)
		}
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

// TestSessionRuntimeCarriesKernelSample: a single-transfer session's
// aggregate report carries the transfer's kernel sample and first-byte
// lag through the Fleet's epoch loop, so under SessionRuntime (and the
// daemon built on it) a strategy that reads the kernel — rl-bandit's
// lossy context — observes them, and the first-byte-lag histogram
// moves, exactly as under Run.
func TestSessionRuntimeCarriesKernelSample(t *testing.T) {
	observer := obs.NewObserver(obs.ObserverConfig{})
	cfg := simCfg()
	s := &logging{Strategy: NewCSStrategy(cfg)}
	transfer := &lossyFake{fake: *newFake(func(xfer.Params, float64) float64 { return 100e6 })}
	rt, err := NewSessionRuntime(FleetConfig{Epoch: cfg.Epoch, Obs: observer}, FleetSession{
		ID: "k", Strategy: s, Transfers: []xfer.Transferer{transfer}, Maps: []ParamMap{cfg.Map},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rt.Step(ctx)
	lag := observer.Registry().Histogram(obs.MetricFirstByteLag, "", obs.DefaultLatencyBuckets)
	if rep := s.log[0].Report; rep.Kernel != nil || rep.FirstByteLag != 0 {
		t.Fatalf("a clean epoch delivered kernel sample %+v and first-byte lag %g", rep.Kernel, rep.FirstByteLag)
	}
	if _, n := lag.SumCount(); n != 0 {
		t.Fatalf("first-byte-lag histogram holds %d samples before any lag was reported", n)
	}

	transfer.lossy = true
	rt.Step(ctx)
	if len(s.log) != 2 {
		t.Fatalf("the strategy observed %d epochs, want 2", len(s.log))
	}
	if rep := s.log[1].Report; rep.Kernel == nil || rep.Kernel.RetransDelta != 7 || rep.FirstByteLag != 0.02 {
		t.Fatalf("a lossy epoch delivered kernel sample %+v and first-byte lag %g, want RetransDelta 7 and 0.02", rep.Kernel, rep.FirstByteLag)
	}
	if sum, n := lag.SumCount(); n != 1 || sum != 0.02 {
		t.Fatalf("first-byte-lag histogram holds %d samples summing to %g, want one of 0.02", n, sum)
	}
}

// BenchmarkSessionDispatch measures the supervisor's hot path: one
// SessionRuntime round (propose, epoch, settle) over an in-memory
// transfer. Read the allocation count by hand (22 allocs/op at PR 17):
// a regression here multiplies across every session of a loaded daemon.
func BenchmarkSessionDispatch(b *testing.B) {
	cfg := cfg1D(0)
	strat, err := NewStrategy("cs-tuner", cfg)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := NewSessionRuntime(FleetConfig{Epoch: 10}, FleetSession{
		Name:      "bench",
		Strategy:  strat,
		Transfers: []xfer.Transferer{newFake(peaked(16))},
		Maps:      []ParamMap{cfg.Map},
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if info := rt.Step(ctx); info.Done {
			b.Fatalf("session ended mid-benchmark: %+v", info)
		}
	}
}
