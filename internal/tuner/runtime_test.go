package tuner

import (
	"context"
	"reflect"
	"testing"

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
