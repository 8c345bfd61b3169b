package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"dstune"
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

// daemon is one re-exec'd dstuned process under test.
type daemon struct {
	cmd *exec.Cmd
	url string
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
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
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
		return &daemon{cmd: cmd, url: "http://" + addr}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("daemon did not report its control address")
		return nil
	}
}

// jobs lists the daemon's jobs keyed by ID.
func (d *daemon) jobs(t *testing.T) map[string]dstune.JobStatus {
	t.Helper()
	resp, err := http.Get(d.url + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Jobs []dstune.JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	out := map[string]dstune.JobStatus{}
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
			case dstune.JobDone:
				done++
			case dstune.JobFailed, dstune.JobEvicted, dstune.JobCancelled:
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
