package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dstune"
	"dstune/internal/service"
)

// TestMain doubles as the daemon entry point: when re-exec'd with
// DSTUNED_REEXEC=1 the test binary runs a real dstuned process, which
// lets TestDaemonSIGKILLRestart kill an actual daemon with an actual
// SIGKILL rather than simulating one in-process.
func TestMain(m *testing.M) {
	if os.Getenv("DSTUNED_REEXEC") == "1" {
		log := func(err error) {
			fmt.Fprintf(os.Stderr, "dstuned: %v\n", err)
			os.Exit(1)
		}
		if err := run(os.Args[1:]); err != nil {
			log(err)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemon is one re-exec'd dstuned process under test, and the lines it
// has written to stderr.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	mu     sync.Mutex
	stderr []string
	eof    chan struct{} // closed once stderr is read to its end
}

// logged returns what the daemon has written to stderr so far.
func (d *daemon) logged() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.stderr, "\n")
}

// startDaemon launches the test binary as a dstuned process on the
// given state directory and waits for its control API address.
func startDaemon(t *testing.T, state string, args ...string) *daemon {
	t.Helper()
	all := append([]string{"-addr", "127.0.0.1:0", "-state", state}, args...)
	cmd := exec.Command(os.Args[0], all...)
	cmd.Env = append(os.Environ(), "DSTUNED_REEXEC=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, eof: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(d.eof)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.stderr = append(d.stderr, line)
			d.mu.Unlock()
			if _, after, ok := strings.Cut(line, "listening on "); ok {
				if addr, _, ok := strings.Cut(after, " "); ok {
					select {
					case addrCh <- addr:
					default:
					}
				}
			}
			t.Logf("[daemon] %s", line)
		}
	}()
	select {
	case addr := <-addrCh:
		d.url = "http://" + addr
		return d
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("daemon did not report its control address")
		return nil
	}
}

// jobs lists the daemon's jobs keyed by ID.
func (d *daemon) jobs(t *testing.T) map[string]service.JobStatus {
	t.Helper()
	resp, err := http.Get(d.url + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Jobs []service.JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	out := map[string]service.JobStatus{}
	for _, st := range body.Jobs {
		out[st.ID] = st
	}
	return out
}

// TestDaemonSIGKILLRestart is the daemon-level kill-and-restart soak:
// real-socket jobs run against an in-test transfer server under 20%
// injected dial failures, the daemon dies by genuine SIGKILL at a
// random moment mid-flight, and a second incarnation on the same state
// directory must finish every job with exact byte accounting.
func TestDaemonSIGKILLRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemon processes")
	}
	srv, err := dstune.ServeGridFTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	state := t.TempDir()
	const nJobs = 3
	const volume = 1.5e9
	spec := func(i int) string {
		return fmt.Sprintf(`{"id": "kill-%d", "addr": %q, "bytes": %.0f, "epoch": 0.05, "max_nc": 8, "seed": %d, "dial_fail_prob": 0.2, "max_transient": 100}`,
			i, srv.Addr(), float64(volume), i+1)
	}

	d1 := startDaemon(t, state)
	for i := 0; i < nJobs; i++ {
		resp, err := http.Post(d1.url+"/jobs", "application/json", strings.NewReader(spec(i)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
	}

	// Let the fleet get genuinely mid-flight, then kill -9 at a random
	// point: no drain, no checkpoint-on-exit, no journal cleanup.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no job settled an epoch before the kill")
		}
		settled := 0
		for _, st := range d1.jobs(t) {
			if st.Epochs > 0 {
				settled++
			}
		}
		if settled >= 1 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(time.Duration(rand.Intn(400)) * time.Millisecond)
	if err := d1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d1.cmd.Wait()

	// Incarnation two on the same state directory picks up the debt.
	d2 := startDaemon(t, state)
	defer func() {
		d2.cmd.Process.Signal(syscall.SIGTERM)
		d2.cmd.Wait()
	}()
	waitUntil := time.Now().Add(120 * time.Second)
	for {
		jobs := d2.jobs(t)
		done := 0
		for _, st := range jobs {
			switch st.State {
			case service.JobDone:
				done++
			case service.JobFailed, service.JobEvicted, service.JobCancelled:
				t.Fatalf("job %s ended %s: %s", st.ID, st.State, st.Error)
			}
		}
		if len(jobs) == nJobs && done == nJobs {
			break
		}
		if time.Now().After(waitUntil) {
			t.Fatalf("jobs not done after restart: %+v", jobs)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Exact byte accounting across the kill: checkpointed epochs plus
	// the resumed run must cover the spec volume precisely.
	for id, st := range d2.jobs(t) {
		if math.Abs(st.Bytes-volume) > 1 {
			t.Errorf("job %s moved %.0f bytes across the kill, want %.0f", id, st.Bytes, float64(volume))
		}
	}
}

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
