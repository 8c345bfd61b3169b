package gridftp

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dstune/internal/directsearch"
	"dstune/internal/faultnet"
	"dstune/internal/tuner"
	"dstune/internal/xfer"
)

// deadServerClient returns a client pointed at an address nothing
// listens on — a full outage from the first dial.
func deadServerClient(t *testing.T) *Client {
	t.Helper()
	s := startServer(t)
	addr := s.Addr()
	s.Close()
	c, err := NewClient(ClientConfig{
		Addr:        addr,
		Bytes:       xfer.Unbounded,
		DialTimeout: 200 * time.Millisecond,
		Retry:       RetryConfig{Attempts: 2, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestStopAbortsFailedEpochPacing is the regression for Stop blocking
// behind failEpoch's pacing: during a simulated outage a failed epoch
// is paced to its nominal duration, and Stop used to wait the whole
// epoch out. It must abort the pacing promptly.
func TestStopAbortsFailedEpochPacing(t *testing.T) {
	c := deadServerClient(t)
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(context.Background(), xfer.Params{NC: 1, NP: 1}, 30)
		done <- err
	}()
	time.Sleep(100 * time.Millisecond) // let Run fail its dials and enter pacing
	start := time.Now()
	c.Stop()
	select {
	case err := <-done:
		if !errors.Is(err, xfer.ErrStopped) {
			t.Fatalf("err = %v, want xfer.ErrStopped", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("Run took %v to honor Stop during outage pacing, want < 1s", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run still blocked 2 s after Stop during outage pacing")
	}
}

// TestCancelAbortsFailedEpochPacing: cancelling the context during a
// simulated outage must end the epoch within well under a second, not
// after the remainder of the paced epoch.
func TestCancelAbortsFailedEpochPacing(t *testing.T) {
	c := deadServerClient(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(ctx, xfer.Params{NC: 1, NP: 1}, 30)
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("Run took %v to honor cancel during outage pacing, want < 1s", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run still blocked 2 s after cancel during outage pacing")
	}
}

// TestDeadlineCheckpointsPartialTransfer: a tuned transfer run under a
// deadline shorter than the transfer must stop cleanly when the
// deadline fires, write a valid checkpoint, and account the partial
// bytes exactly — the checkpoint's acked count is the server's count,
// and the trace sums to it.
func TestDeadlineCheckpointsPartialTransfer(t *testing.T) {
	s := startServer(t)
	const size = 32 << 20
	c, err := NewClient(ClientConfig{
		Addr:   s.Addr(),
		Bytes:  size,
		Shaper: &Shaper{Rate: 2e6},
		Token:  "deadline-tok",
		Seed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	fc := tuner.NewFileCheckpoint(filepath.Join(t.TempDir(), "run.checkpoint"))
	cfg := tuner.Config{
		Epoch:      0.15,
		Box:        directsearch.MustBox([]int{1}, []int{4}),
		Start:      []int{2},
		Map:        tuner.MapNC(1),
		Seed:       5,
		Checkpoint: fc,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	start := time.Now()
	tr, err := tuner.Run(ctx, "default", cfg, c)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("deadlined run took %v to return, want prompt abort", d)
	}
	if len(tr.Results) == 0 {
		t.Fatal("deadlined run recorded no epochs")
	}

	ck, err := tuner.LoadCheckpoint(fc.Path())
	if err != nil {
		t.Fatalf("deadlined run left no valid checkpoint: %v", err)
	}
	if ck.Transfer.Token != "deadline-tok" || ck.Transfer.Total != size {
		t.Fatalf("checkpoint transfer state wrong: %+v", ck.Transfer)
	}
	// Exact accounting, receiver truth: the transfer was preserved (not
	// stopped), so the server still holds the token's counter.
	got, err := c.ServerReceived()
	if err != nil {
		t.Fatalf("server token gone after deadline stop: %v", err)
	}
	if ck.Transfer.Acked != float64(got) {
		t.Fatalf("checkpoint says %v bytes acked, server counted %d", ck.Transfer.Acked, got)
	}
	if want := float64(size) - ck.Transfer.Acked; ck.Transfer.Remaining != want {
		t.Fatalf("Remaining = %v, want %v", ck.Transfer.Remaining, want)
	}
	var sum float64
	for _, rec := range ck.Trace {
		sum += rec.Report.Bytes
	}
	if sum != ck.Transfer.Acked {
		t.Fatalf("trace sums to %v bytes, acked %v — partial epoch unaccounted", sum, ck.Transfer.Acked)
	}
	// The run counter is reported per epoch (restart diagnostics).
	for i, rec := range ck.Trace {
		if rec.Report.Run != i+1 {
			t.Fatalf("epoch %d has Run = %d, want %d", i, rec.Report.Run, i+1)
		}
	}
}

// TestCancelResumeRoundTrip is the end-to-end resilience acceptance: a
// tuned real-socket transfer under fault injection is hard-cancelled
// mid-search, checkpointed, and resumed in a fresh client (as a new
// process would); the resumed run replays the recorded trajectory
// exactly, continues the search mid-stream, completes the transfer,
// and the full trace accounts every byte exactly once.
func TestCancelResumeRoundTrip(t *testing.T) {
	s := startServer(t)
	in := faultnet.New(faultnet.Config{
		Seed:            13,
		DialFailProb:    0.15,
		ResetAfterBytes: 256 << 10,
	})
	const size = 16 << 20
	mkClient := func(dial DialFunc, acked, clock float64) *Client {
		c, err := NewClient(ClientConfig{
			Addr:        s.Addr(),
			Bytes:       size,
			Token:       "resume-tok",
			Dialer:      dial,
			Retry:       RetryConfig{Attempts: 3, Backoff: time.Millisecond},
			Seed:        11,
			AckedBytes:  acked,
			ClockOffset: clock,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	cfg := tuner.Config{
		Epoch:     0.1,
		Tolerance: 30,
		Lambda:    2,
		Box:       directsearch.MustBox([]int{1}, []int{8}),
		Start:     []int{2},
		Map:       tuner.MapNC(1),
		Seed:      5,
	}

	// Session 1: tune under fault injection until 4 epochs are
	// checkpointed, then cancel.
	c1 := mkClient(in.Dial, 0, 0)
	fc := tuner.NewFileCheckpoint(filepath.Join(t.TempDir(), "run.checkpoint"))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg1 := cfg
	cfg1.Checkpoint = tuner.CheckpointFunc(func(ck *tuner.Checkpoint) error {
		if err := fc.Save(ck); err != nil {
			return err
		}
		if ck.Epochs >= 4 {
			cancel()
		}
		return nil
	})
	_, err := tuner.Run(ctx, "cs-tuner", cfg1, c1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("session 1 err = %v, want context.Canceled", err)
	}
	ck, err := tuner.LoadCheckpoint(fc.Path())
	if err != nil {
		t.Fatal(err)
	}
	if ck.Epochs < 4 {
		t.Fatalf("checkpoint holds %d epochs, want >= 4", ck.Epochs)
	}
	if liveTokens(s) != 1 {
		t.Fatalf("Tokens = %d after cancel, want 1 (transfer preserved)", liveTokens(s))
	}
	if in.Refused() == 0 {
		t.Fatal("injector refused no dials; the test exercised nothing")
	}

	// Session 2: a fresh client seeded from the checkpoint's transfer
	// state resumes the run to completion. The faults stay behind with
	// session 1 so the final token-release check is deterministic.
	c2 := mkClient(nil, ck.Transfer.Acked, ck.Transfer.Clock)
	cfg2 := cfg
	cfg2.Resume = ck
	tr, err := tuner.Run(context.Background(), "cs-tuner", cfg2, c2)
	if err != nil {
		t.Fatalf("resumed session: %v", err)
	}
	if last := tr.Results[len(tr.Results)-1]; !last.Report.Done {
		t.Fatalf("resumed transfer did not complete: remaining %v after %d epochs",
			c2.Remaining(), len(tr.Results))
	}
	if len(tr.Results) <= ck.Epochs {
		t.Fatalf("resumed run added no live epochs (%d total, %d replayed)",
			len(tr.Results), ck.Epochs)
	}
	// Replay fidelity: the resumed trace begins with exactly the
	// checkpointed epochs — the search continued mid-trajectory rather
	// than restarting from the default.
	for i := 0; i < ck.Epochs; i++ {
		if !reflect.DeepEqual(tr.Results[i].X, ck.Trace[i].X) ||
			!reflect.DeepEqual(tr.Results[i].Report, ck.Trace[i].Report) {
			t.Fatalf("replayed epoch %d diverged:\n got %+v\nwant X=%v report=%+v",
				i, tr.Results[i], ck.Trace[i].X, ck.Trace[i].Report)
		}
	}
	// Exact byte accounting across the cancel/resume boundary: the full
	// trace accounts the configured volume exactly once.
	var moved float64
	for _, r := range tr.Results {
		moved += r.Report.Bytes
	}
	if moved != size {
		t.Fatalf("trace accounts %v bytes across cancel/resume, want %d", moved, size)
	}
	// Session 2 completed uninterrupted, so its Tune stopped the
	// transfer and released the server-side counter.
	deadline := time.Now().Add(2 * time.Second)
	for liveTokens(s) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("Tokens = %d after completed resume, want 0", liveTokens(s))
		}
		time.Sleep(5 * time.Millisecond)
	}
}
