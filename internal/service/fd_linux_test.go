//go:build linux

package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"dstune/internal/tuner"
)

// TestSessionEndReleasesCheckpointLog: every session holds its
// checkpoint file open for appending while it runs and must release it when it
// ends, however it ends — clean budget end, fatal transfer error,
// cancellation, or a daemon drain that ends it mid-trajectory. The
// Supervisor keeps every job it has seen (and, through it, the ended
// session) reachable for status queries, so a handle that is not closed
// explicitly is never finalised: 500 twelve-epoch jobs must leave the
// process's descriptor count where the first 50 left it.
func TestSessionEndReleasesCheckpointLog(t *testing.T) {
	openFDs := func() int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(entries)
	}
	factory := memFactory(0, func(id string, m *memTransfer) {
		switch {
		case strings.HasSuffix(id, "7"):
			m.failAfter = 5
		case strings.HasPrefix(id, "slow-"):
			m.delay = 2 * time.Millisecond
		}
	})
	sv, cancel := startSupervisor(t, Config{NewTransfer: factory})
	terminal := func(ids []string) bool {
		for _, id := range ids {
			if st, err := sv.Job(id); err != nil || st.State == JobQueued || st.State == JobRunning {
				return false
			}
		}
		return true
	}
	run := func(from, to int) {
		var ids []string
		for i := from; i < to; i++ {
			id := fmt.Sprintf("fd-%04d", i)
			if _, err := sv.Submit(JobSpec{ID: id, Epoch: 1, Budget: 12, MaxNC: 32}); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		waitFor(t, 60*time.Second, "the batch to end", func() bool { return terminal(ids) })
	}
	run(0, 50)
	base := openFDs()
	run(50, 500)

	// Sessions still stepping: cancel some through the API, leave the
	// rest — more than the tolerance — for the drain to interrupt.
	var slow []string
	for i := 0; i < 32; i++ {
		id := fmt.Sprintf("slow-%02d", i)
		if _, err := sv.Submit(JobSpec{ID: id, Epoch: 1, Budget: 1e9, MaxNC: 32}); err != nil {
			t.Fatal(err)
		}
		slow = append(slow, id)
	}
	waitFor(t, 10*time.Second, "the slow jobs to checkpoint", func() bool {
		for _, id := range slow {
			if st, _ := sv.Job(id); st.Epochs < 1 {
				return false
			}
		}
		return true
	})
	if during := openFDs(); during < base+len(slow)-8 {
		t.Fatalf("%d descriptors open with %d sessions running, %d with none: the test no longer sees the checkpoint handles", during, len(slow), base)
	}
	for _, id := range slow[:8] {
		if _, err := sv.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "the cancelled jobs to end", func() bool { return terminal(slow[:8]) })
	cancel()
	sv.Wait()

	if got := openFDs(); got < base-8 || got > base+8 {
		t.Fatalf("%d descriptors open after 500 jobs, a cancel and a drain; %d after the first 50", got, base)
	}
}

// TestAbandonReleasesCheckpointLog covers the drain branch the test
// above reaches only by luck: a session that is between epochs when the
// daemon's context is cancelled ends in its next Step without running
// one, and must release its checkpoint handle too (its transfer stays
// resumable).
func TestAbandonReleasesCheckpointLog(t *testing.T) {
	var transfers []*memTransfer
	keep := func(_ string, m *memTransfer) { transfers = append(transfers, m) }
	sv, err := New(Config{Dir: t.TempDir(), NewTransfer: memFactory(0, keep)})
	if err != nil {
		t.Fatal(err)
	}
	var live []*tuner.SessionRuntime
	for i := 0; i < 4; i++ {
		j := &job{id: fmt.Sprintf("idle-%d", i), spec: JobSpec{Epoch: 1, Budget: 1e9, MaxNC: 32}.WithDefaults(), state: JobRunning}
		rt, err := sv.buildRuntime(j)
		if err != nil {
			t.Fatal(err)
		}
		if info := rt.Step(context.Background()); info.Done {
			t.Fatalf("session ended after one epoch: %+v", info)
		}
		live = append(live, rt)
	}
	logs := func() (n int) {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if target, _ := os.Readlink("/proc/self/fd/" + e.Name()); strings.HasSuffix(target, ".ck") {
				n++
			}
		}
		return n
	}
	if got := logs(); got != len(live) {
		t.Fatalf("%d checkpoint files open under %d running sessions", got, len(live))
	}
	drained, cancel := context.WithCancel(context.Background())
	cancel()
	for _, rt := range live {
		if info := rt.Step(drained); !info.Done || !errors.Is(info.Err, context.Canceled) || rt.Epochs() != 1 {
			t.Fatalf("session %s under a cancelled context: %+v after %d epochs, want done with the cancellation after 1", rt.ID(), info, rt.Epochs())
		}
	}
	if got := logs(); got != 0 {
		t.Fatalf("%d checkpoint files still open after the drain ended their sessions", got)
	}
	for _, m := range transfers {
		if m.stopped {
			t.Fatal("the drain stopped an interrupted session's transfer; it can no longer be resumed")
		}
	}
}
