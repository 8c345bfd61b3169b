package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dstune"
	"dstune/internal/history"
)

// TestFailingRunSyncsAndClosesTraceSink: a run that fails after its
// session ran — here the -csv file's directory does not exist — returns
// its error through run's defers, so by the time main's log.Fatal exits
// the -obs-trace file holds every event whole and is no longer open.
func TestFailingRunSyncsAndClosesTraceSink(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.jsonl")
	o := parseFlags(t, "-tuner", "cs-tuner", "-testbed", "tacc", "-duration", "120",
		"-obs-trace", path, "-csv", filepath.Join(dir, "missing", "trace.csv"))
	if err := run(o); err == nil {
		t.Fatal("run wrote a CSV into a directory that does not exist")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "{") || !strings.HasSuffix(line, "}") {
			t.Fatalf("line %d of %d is torn: %q", i, len(lines), line)
		}
	}
	if !strings.Contains(string(data), `"EpochEnd"`) {
		t.Fatalf("the trace holds no EpochEnd event:\n%s", data)
	}
	// Closed, not just synced: no descriptor of this process still
	// names the file (where /proc lists them).
	fds, _ := os.ReadDir("/proc/self/fd")
	for _, fd := range fds {
		if target, _ := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); target == path {
			t.Fatalf("descriptor %s still holds %s after run returned", fd.Name(), path)
		}
	}
}

// TestObserverCloseFlushesTraceSink is the shutdown-durability
// regression: events recorded through the observer must be complete,
// parseable lines in the trace file once the close function returns —
// nothing buffered, nothing torn.
func TestObserverCloseFlushesTraceSink(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	observer, obsClose, err := newObserver("", path)
	if err != nil {
		t.Fatal(err)
	}
	s := observer.Session("shutdown")
	s.SetStrategy("cs-tuner")
	s.Propose(0, []int{2}, nil)
	s.WarmStart(0, []int{14}, true)
	obsClose()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("trace holds %d lines, want the 2 recorded events:\n%s", len(lines), data)
	}
	for i, line := range lines {
		if !strings.HasPrefix(line, "{") || !strings.HasSuffix(line, "}") {
			t.Fatalf("line %d is torn: %q", i, line)
		}
	}
	if !strings.Contains(lines[1], `"WarmStart"`) {
		t.Fatalf("last event not flushed: %q", lines[1])
	}
}

// TestHistoryStoreSurvivesShutdownCycle: a record added through the
// cmd-level open/record/close cycle is durable and reloadable, and a
// damaged store still opens with its intact records (the degraded
// path main() warns on rather than dying).
func TestHistoryStoreSurvivesShutdownCycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	store, err := dstune.OpenHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	key := history.Key{Endpoint: "uchicago", SizeClass: -1, LoadClass: 5}
	if err := store.Add(history.Record{Key: key, X: []int{14}, Throughput: 3e8, Tuner: "cs-tuner", Epochs: 40}); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash tearing a half-written append onto the file.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":{"endpoint":"uchi`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := dstune.OpenHistory(path)
	if re == nil {
		t.Fatalf("damaged store failed to open: %v", err)
	}
	defer re.Close()
	if err == nil {
		t.Fatal("damage not reported")
	}
	if e, ok := re.Lookup(key); !ok || e.X[0] != 14 {
		t.Fatalf("intact record lost after damage: %+v ok=%v", e, ok)
	}
}
