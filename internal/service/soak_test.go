package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"strconv"
	"testing"
	"time"

	"dstune/internal/tuner"
)

// soakSessions returns the soak scale: DSTUNED_SOAK_SESSIONS when set
// (CI's bounded soak runs 2000, the scale proof 10000), a fast default
// otherwise.
func soakSessions(def int) int {
	if s := os.Getenv("DSTUNED_SOAK_SESSIONS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// waitSoak is waitFor with a coarse poll: at soak scale one snapshot
// of every job is O(n) under the supervisor's mutex, and the default
// 1ms poll would spend the whole machine contending with the session
// loops it is waiting on.
func waitSoak(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestCrashRestartSoak is the tentpole's proof: submit a fleet of
// jobs, cut the daemon down mid-flight (context cancellation is the
// in-process stand-in for SIGKILL — cmd/dstuned's TestDaemonSIGKILL
// covers the real signal), restart on the same state directory, and
// require that every unfinished job is re-adopted and that every job
// completes with exact byte accounting. Scale with
// DSTUNED_SOAK_SESSIONS.
func TestCrashRestartSoak(t *testing.T) {
	n := soakSessions(128)
	dir := t.TempDir()
	factory := memFactory(500*time.Microsecond, nil)

	volume := func(i int) float64 { return 2e8 + float64(i%7)*5e7 }
	spec := func(i int) JobSpec {
		return JobSpec{
			ID:     fmt.Sprintf("soak-%05d", i),
			Tenant: fmt.Sprintf("tenant-%d", i%5),
			Bytes:  volume(i),
			Epoch:  1,
			MaxNC:  32,
			Seed:   uint64(i + 1),
		}
	}

	// Incarnation one: submit everything, let it run briefly, then die.
	limits := Limits{MaxQueued: n, TenantMaxActive: n}
	sv1, err := New(Config{Dir: dir, Limits: limits, NewTransfer: factory})
	if err != nil {
		t.Fatal(err)
	}
	// Submit everything before starting the supervisor, so the kill below
	// lands genuinely mid-flight rather than racing a mostly-drained
	// queue (per-submission journal fsyncs dominate at scale).
	for i := 0; i < n; i++ {
		if _, err := sv1.Submit(spec(i)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	sv1.Start(ctx1)
	waitSoak(t, 60*time.Second, "some epochs to settle before the crash", func() bool {
		settled := 0
		for _, st := range sv1.Jobs() {
			if st.Epochs > 0 {
				settled++
			}
		}
		return settled >= n/8
	})
	cancel1()
	sv1.Wait()

	// Tally incarnation one's terminal jobs: everything else is owed.
	finished := map[string]bool{}
	for _, st := range sv1.Jobs() {
		switch st.State {
		case JobDone:
			finished[st.ID] = true
		case JobFailed, JobCancelled, JobEvicted:
			t.Fatalf("job %s ended %s before the crash: %s", st.ID, st.State, st.Error)
		}
	}

	// Incarnation two: every owed job must be re-adopted — no more, no
	// fewer — and run to completion.
	sv2, err := New(Config{Dir: dir, Limits: limits, NewTransfer: factory})
	if err != nil {
		t.Fatal(err)
	}
	adopted := map[string]bool{}
	for _, rec := range sv2.Adopted() {
		adopted[rec.ID] = true
	}
	for i := 0; i < n; i++ {
		id := spec(i).ID
		if finished[id] && adopted[id] {
			t.Errorf("finished job %s was re-adopted", id)
		}
		if !finished[id] && !adopted[id] {
			t.Errorf("unfinished job %s was not re-adopted", id)
		}
	}
	// The head is the checkpoint's commit point: the epoch count the
	// adoption scan took from it alone must be the number of records a
	// full load finds for it in the log.
	for _, rec := range sv2.Adopted() {
		ck, err := tuner.LoadCheckpoint(sv2.checkpointPath(rec.ID))
		switch {
		case errors.Is(err, fs.ErrNotExist) && rec.Epochs == 0:
			// Admitted but killed before its first epoch settled.
		case err != nil:
			t.Errorf("re-adopted job %s: checkpoint: %v", rec.ID, err)
		case len(ck.Trace) != rec.Epochs:
			t.Errorf("re-adopted job %s: adopted at %d epochs, its checkpoint loads %d records", rec.ID, rec.Epochs, len(ck.Trace))
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	t.Logf("crash point: %d/%d jobs finished, %d re-adopted", len(finished), n, len(adopted))

	if path := os.Getenv("DSTUNED_ADOPTION_REPORT"); path != "" {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		enc := json.NewEncoder(f)
		for _, rec := range sv2.Adopted() {
			if err := enc.Encode(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	sv2.Start(ctx2)
	// The re-run has nearly n jobs to finish; give it wall time
	// proportional to the fleet (the default and CI scales finish far
	// inside the floor).
	deadline := 300 * time.Second
	if scaled := time.Duration(n) * 100 * time.Millisecond; scaled > deadline {
		deadline = scaled
	}
	waitSoak(t, deadline, "all jobs to finish after the restart", func() bool {
		for _, st := range sv2.Jobs() {
			if st.State != JobDone {
				return false
			}
		}
		return true
	})

	// Exact byte accounting, cumulative across the crash: checkpointed
	// epochs plus resumed epochs must equal the spec volume.
	for i := 0; i < n; i++ {
		id := spec(i).ID
		if finished[id] {
			continue
		}
		st, err := sv2.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(st.Bytes-volume(i)) > 1 {
			t.Errorf("job %s moved %.0f bytes across restart, want %.0f", id, st.Bytes, volume(i))
		}
	}

	// All debts paid: the journal is empty again.
	entries, skipped, err := sv2.journal.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 || skipped != 0 {
		t.Fatalf("journal not empty after full completion: %d entries, %d skipped", len(entries), skipped)
	}
}
