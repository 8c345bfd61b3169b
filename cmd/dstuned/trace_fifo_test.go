//go:build unix

package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dstune/internal/service"
)

// TestTraceWriteErrorIsReported: once the -obs-trace sink fails — here
// a FIFO whose reader goes away after the first events, as a full disk
// fails a file — the recorder writes no later event, and the daemon
// says so when it shuts down instead of losing the trace's tail without
// a word. A FIFO whose reader stays to the end is a clean exit, and the
// daemon logs nothing of the trace: a FIFO has nothing to sync.
func TestTraceWriteErrorIsReported(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real daemon process")
	}
	mkfifo := func() (string, *os.File) {
		t.Helper()
		fifo := filepath.Join(t.TempDir(), "events.jsonl")
		if err := syscall.Mkfifo(fifo, 0o600); err != nil {
			t.Skipf("mkfifo: %v", err)
		}
		// Opened first, without blocking, so the daemon's open finds a reader.
		r, err := os.OpenFile(fifo, os.O_RDONLY|syscall.O_NONBLOCK, 0)
		if err != nil {
			t.Fatal(err)
		}
		return fifo, r
	}
	var d *daemon
	run := func(id string) {
		t.Helper()
		spec := fmt.Sprintf(`{"id": %q, "testbed": "tacc", "bytes": 3e9, "epoch": 30}`, id)
		resp, err := http.Post(d.url+"/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %s: status %d", id, resp.StatusCode)
		}
		for deadline := time.Now().Add(30 * time.Second); d.jobs(t)[id].State != service.JobDone; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("job %s not done: %+v", id, d.jobs(t)[id])
			}
		}
	}
	stop := func() string {
		t.Helper()
		if err := d.cmd.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
		<-d.eof
		d.cmd.Wait()
		return d.logged()
	}

	fifo, r := mkfifo()
	d = startDaemon(t, t.TempDir(), "-obs-trace", fifo)
	defer d.cmd.Process.Kill()
	// The daemon holds the FIFO open from before it listens, so the
	// reader drains until the daemon closes it.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		io.Copy(io.Discard, r)
	}()
	run("clean")
	if got := stop(); strings.Contains(got, "obs-trace:") {
		t.Fatalf("a clean shutdown logged a trace error:\n%s", got)
	}
	<-drained
	r.Close()

	fifo, r = mkfifo()
	d = startDaemon(t, t.TempDir(), "-obs-trace", fifo)
	defer d.cmd.Process.Kill()
	run("first")
	r.SetReadDeadline(time.Now().Add(30 * time.Second))
	if n, err := r.Read(make([]byte, 1<<16)); n == 0 {
		t.Fatalf("no event reached the trace: %v", err)
	}
	r.Close()
	run("second")
	if got := stop(); !strings.Contains(got, "obs-trace: ") || !strings.Contains(got, "broken pipe") {
		t.Fatalf("the daemon did not report the trace's write error:\n%s", got)
	}
}
