//go:build unix

package main

import (
	"bytes"
	"log"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestTraceWriteErrorIsReported: once the -obs-trace sink fails — here
// a FIFO whose reader goes away after the first event, as a full disk
// fails a file — the recorder writes no later event, and closing the
// observer says so instead of losing the trace's tail without a word.
// A FIFO whose reader stays to the end is a clean exit, and closing
// logs nothing: a FIFO has nothing to sync.
func TestTraceWriteErrorIsReported(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	for _, readerLeaves := range []bool{false, true} {
		fifo := filepath.Join(t.TempDir(), "events.jsonl")
		if err := syscall.Mkfifo(fifo, 0o600); err != nil {
			t.Skipf("mkfifo: %v", err)
		}
		// Opened first, without blocking, so newObserver's open finds a reader.
		r, err := os.OpenFile(fifo, os.O_RDONLY|syscall.O_NONBLOCK, 0)
		if err != nil {
			t.Fatal(err)
		}
		observer, obsClose, err := newObserver("", fifo)
		if err != nil {
			t.Fatal(err)
		}
		s := observer.Session("full")
		s.Propose(0, []int{2}, nil)
		r.SetReadDeadline(time.Now().Add(10 * time.Second))
		if n, err := r.Read(make([]byte, 1<<16)); n == 0 {
			t.Fatalf("the first event did not reach the trace: %v", err)
		}
		if readerLeaves {
			r.Close()
		}
		s.WarmStart(0, []int{14}, true)

		logged.Reset()
		obsClose()
		got := logged.String()
		if !readerLeaves {
			r.Close()
		}
		if !readerLeaves && strings.Contains(got, "obs-trace:") {
			t.Fatalf("closing the observer after a clean run logged %q", got)
		}
		if readerLeaves && (!strings.Contains(got, "obs-trace: ") || !strings.Contains(got, "broken pipe")) {
			t.Fatalf("closing the observer did not report the trace's write error: %q", got)
		}
	}
}
