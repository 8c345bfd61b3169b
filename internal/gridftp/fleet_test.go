package gridftp

import (
	"context"
	"testing"
	"time"

	"dstune/internal/directsearch"
	"dstune/internal/faultnet"
	"dstune/internal/tuner"
	"dstune/internal/xfer"
)

// TestFleetConcurrentFaultySockets is the Fleet acceptance test: eight
// real-socket transfers against one server, each with its own fault
// injector (20% dial refusals, mid-epoch resets) and its own tuning
// strategy, all paced by a single Fleet scheduler. Every session must
// complete its configured volume with exact byte accounting — lost
// (reset) bytes re-sent, buffered bytes not double-counted — despite
// running concurrently under injected faults.
func TestFleetConcurrentFaultySockets(t *testing.T) {
	s := startServer(t)
	names := []string{"default", "cd-tuner", "cs-tuner", "nm-tuner", "heur1", "heur2", "model", "cs-tuner"}

	sizes := make([]float64, len(names))
	injectors := make([]*faultnet.Injector, len(names))
	sessions := make([]tuner.FleetSession, len(names))
	for i, name := range names {
		sizes[i] = float64((i + 1) << 19) // 0.5 MB .. 4 MB: distinct per-session totals
		injectors[i] = faultnet.New(faultnet.Config{
			Seed:            uint64(11 + i),
			DialFailProb:    0.20,
			ResetAfterBytes: 256 << 10,
		})
		cfg := tuner.Config{
			Epoch:     0.1,
			Tolerance: 30,
			Box:       directsearch.MustBox([]int{1}, []int{8}),
			Start:     []int{2},
			Map:       tuner.MapNC(1),
			Seed:      uint64(5 + i),
			Lambda:    2,
		}
		strat, err := tuner.NewStrategy(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewClient(ClientConfig{
			Addr:  s.Addr(),
			Bytes: sizes[i],
			// Three 64 KiB frames a stripe per 0.1 s epoch: a stripe
			// outlives its first epoch and dies, at 256 KiB, in its
			// second, so the sessions both reuse and re-dial.
			Shaper: &Shaper{Rate: 1.5e6},
			Dialer: injectors[i].Dial,
			Retry:  RetryConfig{Attempts: 3, Backoff: time.Millisecond},
			Seed:   uint64(11 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = tuner.FleetSession{
			Name:      name,
			Strategy:  strat,
			Transfers: []xfer.Transferer{c},
			Maps:      []tuner.ParamMap{cfg.Map},
		}
	}

	fleet := tuner.NewFleet(tuner.FleetConfig{Epoch: 0.1}, sessions...)
	results, err := fleet.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(names) {
		t.Fatalf("got %d session results, want %d", len(results), len(names))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Errorf("session %d (%s) failed: %v", i, r.Name, r.Err)
			continue
		}
		tr := r.Traces[0]
		if len(tr.Results) == 0 {
			t.Errorf("session %d (%s) recorded no epochs", i, r.Name)
			continue
		}
		if last := tr.Results[len(tr.Results)-1]; !last.Report.Done {
			t.Errorf("session %d (%s) did not complete after %d epochs", i, r.Name, len(tr.Results))
		}
		// Exact per-session accounting: the scheduler's byte counter,
		// the session's own trace, and the configured volume all agree.
		if r.Bytes != sizes[i] {
			t.Errorf("session %d (%s) accounts %v bytes, want %v", i, r.Name, r.Bytes, sizes[i])
		}
		var moved float64
		for _, res := range tr.Results {
			moved += res.Report.Bytes
		}
		if moved != r.Bytes {
			t.Errorf("session %d (%s) trace sums to %v bytes, SessionResult says %v", i, r.Name, moved, r.Bytes)
		}
	}
	// The warm data plane must have carried streams across epochs even
	// under faults: summed stream reuse across all session traces is
	// positive (only evicted or retired stripes get re-dialed).
	reusedTotal := 0
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		for _, res := range r.Traces[0].Results {
			reusedTotal += res.Report.ReusedStreams
		}
	}
	if reusedTotal == 0 {
		t.Fatal("no stream was ever reused across the fleet's epochs")
	}
	// The faults must actually have fired, or the test exercised nothing.
	var refused, resets int
	for _, in := range injectors {
		refused += in.Refused()
		resets += in.Resets()
	}
	if refused == 0 {
		t.Fatal("no dials were refused across the fleet")
	}
	if resets == 0 {
		t.Fatal("no connections were reset across the fleet")
	}
	// Every token was closed out: the server holds no live counters.
	if n := s.Tokens(); n != 0 {
		t.Fatalf("server still tracks %d transfer tokens after the fleet finished", n)
	}
}
