package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dstune/internal/tuner"
	"dstune/internal/xfer"
)

// memTransfer is a synthetic in-memory transfer with a virtual clock:
// each Run moves rate(params)*epoch bytes instantly (plus an optional
// real-time delay so tests can keep jobs in flight). It implements
// Snapshotter, so the service checkpoints and resumes it like any
// production transfer: a resumed incarnation is rebuilt over the
// checkpoint's remaining bytes, exactly as the simulation fabric path
// does.
type memTransfer struct {
	mu        sync.Mutex
	total     float64 // -1 = unbounded
	acked     float64
	clock     float64
	rate      func(p xfer.Params) float64
	delay     time.Duration
	failEvery int // every Nth run fails transiently
	failAfter int // run number at which a fatal error fires
	runs      int
	stopped   bool
}

func (m *memTransfer) Run(ctx context.Context, p xfer.Params, epoch float64) (xfer.Report, error) {
	if m.delay > 0 {
		select {
		case <-ctx.Done():
		case <-time.After(m.delay):
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return xfer.Report{}, xfer.ErrStopped
	}
	start := m.clock
	if err := ctx.Err(); err != nil {
		return xfer.Report{Params: p, Start: start, End: start}, err
	}
	m.runs++
	if m.failAfter > 0 && m.runs >= m.failAfter {
		return xfer.Report{}, errors.New("injected fatal failure")
	}
	if m.failEvery > 0 && m.runs%m.failEvery == 0 {
		m.clock += epoch
		return xfer.Report{Params: p, Start: start, End: m.clock}, xfer.Transient(errors.New("injected transient failure"))
	}
	tput := m.rate(p)
	moved := tput * epoch
	dur := epoch
	if m.total >= 0 {
		if rem := m.total - m.acked; moved >= rem {
			moved = rem
			dur = rem / tput
			if dur <= 0 {
				dur = 1e-9
			}
		}
	}
	m.acked += moved
	m.clock += dur
	return xfer.Report{
		Params:     p,
		Start:      start,
		End:        m.clock,
		Bytes:      moved,
		Throughput: moved / dur,
		BestCase:   moved / dur,
		Done:       m.total >= 0 && m.acked >= m.total-1e-9,
	}, nil
}

func (m *memTransfer) Remaining() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.total < 0 {
		return math.Inf(1)
	}
	return m.total - m.acked
}

func (m *memTransfer) Now() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.clock
}

func (m *memTransfer) Stop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stopped = true
}

// Snapshot implements xfer.Snapshotter.
func (m *memTransfer) Snapshot() xfer.TransferState {
	m.mu.Lock()
	defer m.mu.Unlock()
	rem := -1.0
	if m.total >= 0 {
		rem = m.total - m.acked
	}
	return xfer.TransferState{Total: m.total, Acked: m.acked, Remaining: rem, Clock: m.clock}
}

// climb is the default synthetic objective: throughput grows with the
// stream count up to a knee, so the tuners have a surface to search.
func climb(p xfer.Params) float64 {
	s := p.Streams()
	if s > 64 {
		s = 64
	}
	return 1e6 * float64(s)
}

// memFactory builds a TransferFactory over memTransfer. mutate, when
// non-nil, adjusts each fresh transfer (fault injection) before use.
func memFactory(delay time.Duration, mutate func(id string, m *memTransfer)) TransferFactory {
	return func(id string, spec JobSpec, resume *tuner.Checkpoint) (xfer.Transferer, error) {
		total := -1.0
		if spec.Bytes > 0 {
			total = spec.Bytes
		}
		if resume != nil {
			// Like the simulation path: a rebuilt transfer covers
			// exactly the checkpoint's remaining volume.
			total = resume.Transfer.Remaining
		}
		m := &memTransfer{total: total, rate: climb, delay: delay}
		if mutate != nil {
			mutate(id, m)
		}
		return m, nil
	}
}

// waitFor polls cond every millisecond until it holds or the deadline
// passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// startSupervisor builds and starts a Supervisor over a temp state dir.
func startSupervisor(t *testing.T, cfg Config) (*Supervisor, context.CancelFunc) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	sv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sv.Start(ctx)
	t.Cleanup(func() {
		cancel()
		sv.Wait()
	})
	return sv, cancel
}

// postJob submits spec over the HTTP API and returns the response.
func postJob(t *testing.T, srv *httptest.Server, spec any) (*http.Response, JobStatus) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp, st
}

// getJob fetches one job's status over the HTTP API.
func getJob(t *testing.T, srv *httptest.Server, id string) (int, JobStatus) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

// TestJobLifecycleHTTP drives one job through the full control API:
// submit, watch it run, and see it finish with exact byte accounting.
func TestJobLifecycleHTTP(t *testing.T) {
	sv, _ := startSupervisor(t, Config{NewTransfer: memFactory(0, nil)})
	srv := httptest.NewServer(sv.Handler())
	defer srv.Close()

	const volume = 5e8
	resp, st := postJob(t, srv, JobSpec{ID: "alpha", Bytes: volume, Epoch: 1, MaxNC: 32})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: got %d, want 201", resp.StatusCode)
	}
	if st.ID != "alpha" || st.State != JobRunning {
		t.Fatalf("submit status = %+v, want the job running: a slot was free", st)
	}
	waitFor(t, 10*time.Second, "job alpha to finish", func() bool {
		_, st := getJob(t, srv, "alpha")
		return st.State == JobDone
	})
	_, st = getJob(t, srv, "alpha")
	if st.Epochs == 0 || math.Abs(st.Bytes-volume) > 1 {
		t.Fatalf("final status = %+v, want epochs > 0 and bytes == %g", st, volume)
	}

	// The finished job left no journal entry behind.
	entries, _, err := sv.journal.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("journal still holds %d entries after completion", len(entries))
	}

	// The list endpoint serves it too.
	listResp, err := http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(listResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != "alpha" {
		t.Fatalf("list = %+v", list.Jobs)
	}

	// Unknown jobs are 404s.
	if code, _ := getJob(t, srv, "nope"); code != http.StatusNotFound {
		t.Fatalf("GET unknown job: got %d, want 404", code)
	}
}

// TestCancelKeepsCheckpoint cancels a running job over HTTP and checks
// the graceful contract: terminal "cancelled" state, journal entry
// removed (no re-adoption), checkpoint retained for inspection.
func TestCancelKeepsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	sv, _ := startSupervisor(t, Config{Dir: dir, NewTransfer: memFactory(2*time.Millisecond, nil)})
	srv := httptest.NewServer(sv.Handler())
	defer srv.Close()

	resp, _ := postJob(t, srv, JobSpec{ID: "longhaul", Budget: 1e9, Epoch: 1, MaxNC: 32})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: got %d, want 201", resp.StatusCode)
	}
	waitFor(t, 10*time.Second, "job to settle an epoch", func() bool {
		_, st := getJob(t, srv, "longhaul")
		return st.Epochs >= 1
	})

	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/longhaul", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: got %d, want 200", dresp.StatusCode)
	}
	waitFor(t, 10*time.Second, "job to reach cancelled", func() bool {
		_, st := getJob(t, srv, "longhaul")
		return st.State == JobCancelled
	})

	entries, _, err := sv.journal.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("cancelled job still journaled: %d entries", len(entries))
	}
	if _, err := tuner.LoadCheckpoint(sv.checkpointPath("longhaul")); err != nil {
		t.Fatalf("cancelled job's checkpoint unreadable: %v", err)
	}
	// A restart on the same state dir must not resurrect it.
	sv2, err := New(Config{Dir: dir, NewTransfer: memFactory(0, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if got := sv2.Adopted(); len(got) != 0 {
		t.Fatalf("restart re-adopted a cancelled job: %+v", got)
	}
}

// TestAdmissionBackpressure pins the 429 contract: with one active
// slot and a one-deep queue, the third concurrent job bounces with
// Retry-After, and a duplicate ID bounces with 409.
func TestAdmissionBackpressure(t *testing.T) {
	sv, _ := startSupervisor(t, Config{
		Limits:      Limits{MaxActive: 1, MaxQueued: 1, TenantMaxActive: 16, RetryAfter: 2 * time.Second},
		NewTransfer: memFactory(2*time.Millisecond, nil),
	})
	srv := httptest.NewServer(sv.Handler())
	defer srv.Close()

	if resp, _ := postJob(t, srv, JobSpec{ID: "a", Budget: 1e9, Epoch: 1}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("job a: got %d, want 201", resp.StatusCode)
	}
	// Wait until "a" occupies the single active slot, so "b" is
	// definitely queued rather than racing it.
	waitFor(t, 10*time.Second, "job a to start running", func() bool {
		_, st := getJob(t, srv, "a")
		return st.State == JobRunning
	})
	if resp, _ := postJob(t, srv, JobSpec{ID: "b", Budget: 1e9, Epoch: 1}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("job b: got %d, want 201", resp.StatusCode)
	}
	resp, _ := postJob(t, srv, JobSpec{ID: "c", Budget: 1e9, Epoch: 1})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job c: got %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}
	if _, err := sv.Job("c"); !errors.Is(err, ErrNotFound) {
		t.Fatal("rejected job c was admitted anyway")
	}
	// Rejected submissions are never journaled.
	entries, _, err := sv.journal.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("journal holds %d entries, want 2", len(entries))
	}

	resp, _ = postJob(t, srv, JobSpec{ID: "a", Budget: 1e9, Epoch: 1})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate id: got %d, want 409", resp.StatusCode)
	}
}

// TestTenantQuota pins per-tenant admission: a tenant at its cap is
// rejected with "tenant-quota" while other tenants still get in.
func TestTenantQuota(t *testing.T) {
	sv, _ := startSupervisor(t, Config{
		Limits:      Limits{TenantMaxActive: 1},
		NewTransfer: memFactory(2*time.Millisecond, nil),
	})
	if _, err := sv.Submit(JobSpec{ID: "n1", Tenant: "noisy", Budget: 1e9, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	_, err := sv.Submit(JobSpec{ID: "n2", Tenant: "noisy", Budget: 1e9, Epoch: 1})
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Reason != "tenant-quota" {
		t.Fatalf("second noisy job: err = %v, want tenant-quota rejection", err)
	}
	if _, err := sv.Submit(JobSpec{ID: "q1", Tenant: "quiet", Budget: 1e9, Epoch: 1}); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
}

// TestTenantFaultBudget pins eviction: a tenant whose jobs keep
// failing transiently exhausts its fault budget, its running jobs are
// evicted at their next epoch boundary, and new submissions bounce —
// while a healthy tenant's job rides along unharmed.
func TestTenantFaultBudget(t *testing.T) {
	factory := memFactory(0, func(id string, m *memTransfer) {
		if strings.HasPrefix(id, "flaky") {
			m.failEvery = 1 // every epoch fails transiently
			m.delay = time.Millisecond
		}
	})
	sv, _ := startSupervisor(t, Config{
		Limits:      Limits{TenantFaultBudget: 3},
		NewTransfer: factory,
	})
	// MaxTransient far above the tenant budget: the per-session
	// tolerance must not end the session before the tenant budget
	// trips.
	if _, err := sv.Submit(JobSpec{ID: "flaky-1", Tenant: "noisy", Budget: 1e9, Epoch: 1, MaxTransient: 1000}); err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Submit(JobSpec{ID: "steady", Tenant: "quiet", Bytes: 3e8, Epoch: 1, MaxNC: 32}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "noisy tenant eviction", func() bool {
		st, err := sv.Job("flaky-1")
		return err == nil && st.State == JobEvicted
	})
	_, err := sv.Submit(JobSpec{ID: "flaky-2", Tenant: "noisy", Budget: 1e9, Epoch: 1})
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Reason != "fault-budget" {
		t.Fatalf("post-eviction submit: err = %v, want fault-budget rejection", err)
	}
	waitFor(t, 10*time.Second, "quiet tenant completion", func() bool {
		st, err := sv.Job("steady")
		return err == nil && st.State == JobDone
	})
}

// TestJobFailureIsolation pins the service-level isolation contract: a
// job that dies with a fatal error must not take down the jobs running
// beside it.
func TestJobFailureIsolation(t *testing.T) {
	factory := memFactory(0, func(id string, m *memTransfer) {
		if id == "doomed" {
			m.failAfter = 2
		}
	})
	sv, _ := startSupervisor(t, Config{NewTransfer: factory})
	ids := []string{"doomed", "healthy-1", "healthy-2", "healthy-3"}
	for _, id := range ids {
		if _, err := sv.Submit(JobSpec{ID: id, Bytes: 4e8, Epoch: 1, MaxNC: 32}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "all jobs to reach a terminal state", func() bool {
		for _, id := range ids {
			st, err := sv.Job(id)
			if err != nil || (st.State != JobDone && st.State != JobFailed) {
				return false
			}
		}
		return true
	})
	st, _ := sv.Job("doomed")
	if st.State != JobFailed || st.Error == "" {
		t.Fatalf("doomed job = %+v, want failed with error", st)
	}
	for _, id := range ids[1:] {
		st, _ := sv.Job(id)
		if st.State != JobDone || math.Abs(st.Bytes-4e8) > 1 {
			t.Fatalf("sibling %s = %+v, want done with full bytes", id, st)
		}
	}
}

// TestAutoIDsSurviveRestart pins that auto-assigned job IDs never
// collide across a restart: the admission sequence is journaled and
// restored.
func TestAutoIDsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	sv, cancel := startSupervisor(t, Config{Dir: dir, NewTransfer: memFactory(2*time.Millisecond, nil)})
	st1, err := sv.Submit(JobSpec{Budget: 1e9, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	sv.Wait()

	sv2, err := New(Config{Dir: dir, NewTransfer: memFactory(2*time.Millisecond, nil)})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := sv2.Submit(JobSpec{Budget: 1e9, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st1.ID == st2.ID {
		t.Fatalf("auto ID %q reused across restart", st1.ID)
	}
}

// TestCorruptCheckpointColdStarts: a checkpoint the restarted daemon
// cannot resume — one whose middle record fails its CRC, or the head
// and epoch log the previous format wrote — costs the job its
// trajectory, not its completion, and every report of the job says so:
// the adoption report and GET /jobs/{id} show it adopted at 0 epochs,
// the runtime cold-starts and logs why, and the first Save of the new
// session replaces the file.
func TestCorruptCheckpointColdStarts(t *testing.T) {
	v3Head, err := os.ReadFile("../tuner/testdata/v3.checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	v3Log, err := os.ReadFile("../tuner/testdata/v3.checkpoint.log")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, why string
		damage    func(path string) error
	}{
		{"mid-file CRC", "record 1 fails its check", func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			lines := bytes.SplitAfter(data, []byte("\n"))
			lines[2][20] ^= 1 // inside record 1's JSON; records 0 and 2 stay whole
			return os.WriteFile(path, bytes.Join(lines, nil), 0o644)
		}},
		{"v3 pair", "has version 3, this build reads 4", func(path string) error {
			if err := os.WriteFile(path, v3Head, 0o644); err != nil {
				return err
			}
			return os.WriteFile(path+".log", v3Log, 0o644)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			const volume = 2e9
			sv, cancel := startSupervisor(t, Config{Dir: dir, NewTransfer: memFactory(time.Millisecond, nil)})
			if _, err := sv.Submit(JobSpec{ID: "torn", Bytes: volume, Epoch: 1, MaxNC: 32}); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 10*time.Second, "a few epochs to settle", func() bool {
				st, _ := sv.Job("torn")
				return st.Epochs >= 3
			})
			cancel()
			sv.Wait()
			ckPath := sv.checkpointPath("torn")
			if err := tc.damage(ckPath); err != nil {
				t.Fatal(err)
			}
			if _, err := tuner.LoadCheckpoint(ckPath); err == nil || !strings.Contains(err.Error(), tc.why) {
				t.Fatalf("the damaged checkpoint loads with %v, want an error saying %q", err, tc.why)
			}

			var logged []string
			var mu sync.Mutex
			sv2, _ := startSupervisor(t, Config{Dir: dir, NewTransfer: memFactory(0, nil),
				Logf: func(format string, args ...any) {
					mu.Lock()
					defer mu.Unlock()
					logged = append(logged, fmt.Sprintf(format, args...))
				}})
			if got := sv2.Adopted(); len(got) != 1 || got[0].Epochs != 0 || got[0].Bytes != 0 {
				t.Fatalf("adoption report %+v, want the one job at 0 epochs", got)
			}
			srv := httptest.NewServer(sv2.Handler())
			defer srv.Close()
			waitFor(t, 10*time.Second, "the job to finish after the cold start", func() bool {
				_, st := getJob(t, srv, "torn")
				return st.State == JobDone
			})
			_, st := getJob(t, srv, "torn")
			if !st.Adopted || st.AdoptedEpochs != 0 {
				t.Fatalf("GET /jobs/torn reports adopted %v at %d epochs, want adopted at 0", st.Adopted, st.AdoptedEpochs)
			}
			mu.Lock()
			all := strings.Join(logged, "\n")
			mu.Unlock()
			if !strings.Contains(all, "cold-starting") || !strings.Contains(all, tc.why) {
				t.Fatalf("the restart did not report a cold start saying %q: %q", tc.why, logged)
			}
			after, err := tuner.LoadCheckpoint(ckPath)
			if err != nil {
				t.Fatalf("the cold-started session left an unreadable checkpoint: %v", err)
			}
			if after.Epochs != st.Epochs || math.Abs(st.Bytes-volume) > 1 {
				t.Fatalf("cold-started job reports %d epochs and %.0f bytes; its checkpoint holds %d epochs, the spec asks %.0f bytes",
					st.Epochs, st.Bytes, after.Epochs, volume)
			}
		})
	}
}

// TestRetiredStrategyCheckpointFailsJob: a job whose checkpoint names a
// strategy this build no longer has — one written under the warm-start
// wrapper (a parent-commit "warm:cs-tuner" run), one by the tabular
// Q-learner "rl-q" — is re-adopted and then refused by that name: GET
// /jobs/{id} shows it failed with the error. It is not cold-started
// under another name: unlike a damaged checkpoint, this one says
// exactly which strategy it needs.
func TestRetiredStrategyCheckpointFailsJob(t *testing.T) {
	raw, err := os.ReadFile("../tuner/testdata/golden/cold_checkpoints.json")
	if err != nil {
		t.Fatal(err)
	}
	var cold map[string]string
	if err := json.Unmarshal(raw, &cold); err != nil {
		t.Fatal(err)
	}
	warm, err := os.ReadFile("../tuner/testdata/parent_warm.checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	retired := []struct {
		id, tuner string
		file      []byte
	}{
		{"old", "warm:cs-tuner", warm},
		{"rlq", "rl-q", []byte(cold["rl-q"])},
	}

	dir := t.TempDir()
	sv, cancel := startSupervisor(t, Config{Dir: dir, NewTransfer: memFactory(time.Millisecond, nil)})
	for _, r := range retired {
		if _, err := sv.Submit(JobSpec{ID: r.id, Bytes: 2e9, Epoch: 1, MaxNC: 32}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "an epoch to settle in every job", func() bool {
		for _, r := range retired {
			if st, _ := sv.Job(r.id); st.Epochs < 1 {
				return false
			}
		}
		return true
	})
	cancel()
	sv.Wait()
	for _, r := range retired {
		if err := os.WriteFile(sv.checkpointPath(r.id), r.file, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	sv2, _ := startSupervisor(t, Config{Dir: dir, NewTransfer: memFactory(0, nil)})
	if got := sv2.Adopted(); len(got) != len(retired) {
		t.Fatalf("adoption report %+v, want the %d jobs", got, len(retired))
	}
	srv := httptest.NewServer(sv2.Handler())
	defer srv.Close()
	for _, r := range retired {
		waitFor(t, 10*time.Second, "the re-adopted job to end", func() bool {
			_, st := getJob(t, srv, r.id)
			return st.State != JobQueued && st.State != JobRunning
		})
		if _, st := getJob(t, srv, r.id); st.State != JobFailed || !strings.Contains(st.Error, `"`+r.tuner+`"`) {
			t.Fatalf("re-adopted job %s is %s with error %q, want failed naming %s", r.id, st.State, st.Error, r.tuner)
		}
	}
}

// TestWithdrawnStrategyJobFailsByName: a job journaled and
// checkpointed under a strategy this build withdrew — "two-phase", as a
// daemon of an earlier build left it — is re-adopted beside a cs-tuner
// job and then fails with an error naming the strategy, while the
// cs-tuner job completes and the restarted daemon goes on serving new
// jobs.
func TestWithdrawnStrategyJobFailsByName(t *testing.T) {
	dir := t.TempDir()
	sv, cancel := startSupervisor(t, Config{Dir: dir, NewTransfer: memFactory(time.Millisecond, nil)})
	for _, id := range []string{"tp", "cs"} {
		if _, err := sv.Submit(JobSpec{ID: id, Tuner: "cs-tuner", Bytes: 2e9, Epoch: 1, MaxNC: 32}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "an epoch to settle in both jobs", func() bool {
		tp, _ := sv.Job("tp")
		cs, _ := sv.Job("cs")
		return tp.Epochs >= 1 && cs.Epochs >= 1
	})
	cancel()
	sv.Wait()
	entries, _, err := sv.journal.Entries()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.ID != "tp" {
			continue
		}
		e.Spec.Tuner = "two-phase"
		if err := sv.journal.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	ck, err := os.ReadFile(sv.checkpointPath("tp"))
	if err != nil {
		t.Fatal(err)
	}
	ck = bytes.Replace(ck, []byte(`"tuner":"cs-tuner"`), []byte(`"tuner":"two-phase"`), 1)
	if err := os.WriteFile(sv.checkpointPath("tp"), ck, 0o644); err != nil {
		t.Fatal(err)
	}
	if head, err := tuner.LoadCheckpointHead(sv.checkpointPath("tp")); err != nil || head.Tuner != "two-phase" {
		t.Fatalf("rewritten checkpoint reads as %+v, %v", head, err)
	}

	sv2, _ := startSupervisor(t, Config{Dir: dir, NewTransfer: memFactory(0, nil)})
	if got := sv2.Adopted(); len(got) != 2 {
		t.Fatalf("adoption report %+v, want both jobs", got)
	}
	srv := httptest.NewServer(sv2.Handler())
	defer srv.Close()
	ended := func(id string) JobStatus {
		waitFor(t, 10*time.Second, "job "+id+" to end", func() bool {
			_, st := getJob(t, srv, id)
			return st.State != JobQueued && st.State != JobRunning
		})
		_, st := getJob(t, srv, id)
		return st
	}
	if st := ended("tp"); st.State != JobFailed || !strings.Contains(st.Error, `"two-phase"`) {
		t.Fatalf("re-adopted two-phase job is %s with error %q, want failed naming two-phase", st.State, st.Error)
	}
	if st := ended("cs"); st.State != JobDone {
		t.Fatalf("re-adopted cs-tuner job is %s (%s), want done", st.State, st.Error)
	}
	if resp, _ := postJob(t, srv, JobSpec{ID: "after", Bytes: 5e8, Epoch: 1, MaxNC: 32}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("a new job after the restart got %d", resp.StatusCode)
	}
	if st := ended("after"); st.State != JobDone {
		t.Fatalf("a new job after the restart is %s (%s), want done", st.State, st.Error)
	}
}

// TestDivergedCheckpointFailsJob: a re-adopted job whose recorded
// epochs its strategy does not reproduce — here the first recorded
// vector is one the box cannot hold, re-framed under a CRC that
// matches it — is refused by the replay that resumes it: GET
// /jobs/{id} shows it failed with "resume diverged at epoch 0" rather
// than continuing from a state the run never reached.
func TestDivergedCheckpointFailsJob(t *testing.T) {
	dir := t.TempDir()
	sv, cancel := startSupervisor(t, Config{Dir: dir, NewTransfer: memFactory(time.Millisecond, nil)})
	if _, err := sv.Submit(JobSpec{ID: "div", Bytes: 2e9, Epoch: 1, MaxNC: 32}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "an epoch to settle", func() bool {
		st, _ := sv.Job("div")
		return st.Epochs >= 1
	})
	cancel()
	sv.Wait()
	path := sv.checkpointPath("div")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	var rec map[string]json.RawMessage
	if err := json.Unmarshal(bytes.TrimSuffix(lines[1][9:], []byte("\n")), &rec); err != nil {
		t.Fatal(err)
	}
	rec["x"] = json.RawMessage(`[99]`)
	js, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	lines[1] = frameRecord(js)
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	sv2, _ := startSupervisor(t, Config{Dir: dir, NewTransfer: memFactory(0, nil)})
	srv := httptest.NewServer(sv2.Handler())
	defer srv.Close()
	waitFor(t, 10*time.Second, "the re-adopted job to end", func() bool {
		_, st := getJob(t, srv, "div")
		return st.State != JobQueued && st.State != JobRunning
	})
	if _, st := getJob(t, srv, "div"); st.State != JobFailed || !strings.Contains(st.Error, "resume diverged at epoch 0") {
		t.Fatalf("re-adopted job is %s with error %q, want failed with a divergence", st.State, st.Error)
	}
}

// frameRecord frames one record's JSON as a checkpoint file line: its
// CRC-32C in 8 hex digits, a space, the JSON and a newline.
func frameRecord(js []byte) []byte {
	return fmt.Appendf(nil, "%08x %s\n", crc32.Checksum(js, crc32.MakeTable(crc32.Castagnoli)), js)
}

// TestMalformedSubmitNeverJournaled pins the hostile-input contract at
// the HTTP layer: bad bodies get 400 and leave no trace in the
// journal.
func TestMalformedSubmitNeverJournaled(t *testing.T) {
	sv, _ := startSupervisor(t, Config{NewTransfer: memFactory(0, nil)})
	srv := httptest.NewServer(sv.Handler())
	defer srv.Close()

	bad := []string{
		``,
		`{`,
		`[]`,
		`{"id": "x", "bytes": 1e9} trailing`,
		`{"unknown_field": 1, "bytes": 1e9}`,
		`{"id": "../escape", "bytes": 1e9}`,
		`{"id": "x", "bytes": -5}`,
		`{"id": "x"}`, // unbounded without budget
		`{"id": "x", "tuner": "no-such-tuner", "bytes": 1e9}`,
		`{"id": "x", "tuner": "two-phase", "bytes": 1e9}`,
		`{"id": "x", "tuner": "kernel-aware:cs-tuner", "bytes": 1e9}`,
		fmt.Sprintf(`{"id": %q, "bytes": 1e9}`, strings.Repeat("a", 65)),
	}
	for _, body := range bad {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: got %d, want 400", body, resp.StatusCode)
		}
	}
	entries, skipped, err := sv.journal.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 || skipped != 0 {
		t.Fatalf("journal not empty after rejected submissions: %d entries, %d skipped", len(entries), skipped)
	}
	if jobs := sv.Jobs(); len(jobs) != 0 {
		t.Fatalf("rejected submissions registered jobs: %+v", jobs)
	}
}

// TestReleasedSlotAdmitsOldestQueued pins admission under a full active
// cap: a slot freed by a finishing job goes to the oldest queued job, so
// with a cap of one every job still finishes and they start in
// submission order.
func TestReleasedSlotAdmitsOldestQueued(t *testing.T) {
	var mu sync.Mutex
	var started []string
	sv, _ := startSupervisor(t, Config{
		Limits: Limits{MaxActive: 1, MaxQueued: 64, TenantMaxActive: 64},
		NewTransfer: memFactory(100*time.Microsecond, func(id string, _ *memTransfer) {
			mu.Lock()
			defer mu.Unlock()
			started = append(started, id)
		}),
	})
	ids := []string{"fourth-by-name", "c", "a", "b"}
	for _, id := range ids {
		if _, err := sv.Submit(JobSpec{ID: id, Bytes: 2e8, Epoch: 1, MaxNC: 32}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 30*time.Second, "every job to finish under a one-slot cap", func() bool {
		for _, st := range sv.Jobs() {
			if st.State != JobDone {
				return false
			}
		}
		return true
	})
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(started, ids) {
		t.Fatalf("jobs started in order %v, submitted in order %v", started, ids)
	}
}

// TestSubmitReportsStateAfterAdmission: Submit answers with the job's
// state once admission has run — running for the job a free slot
// started at once, queued for the one that found the slots full.
func TestSubmitReportsStateAfterAdmission(t *testing.T) {
	sv, _ := startSupervisor(t, Config{
		Limits:      Limits{MaxActive: 1, MaxQueued: 64, TenantMaxActive: 64},
		NewTransfer: memFactory(0, func(_ string, m *memTransfer) { m.delay = time.Minute }),
	})
	for _, want := range []struct {
		id    string
		state JobState
	}{{"holder", JobRunning}, {"waiter", JobQueued}} {
		st, err := sv.Submit(JobSpec{ID: want.id, Bytes: 4e8, Epoch: 1, MaxNC: 32})
		if err != nil {
			t.Fatal(err)
		}
		if st.State != want.state {
			t.Fatalf("Submit(%s) reports %s, want %s", want.id, st.State, want.state)
		}
	}
}

// TestStalledJobDoesNotPaceSiblings: a job whose epochs take a minute of
// wall time sets nobody's cadence but its own — the job beside it runs
// to completion while the stalled one is still inside its first epoch.
func TestStalledJobDoesNotPaceSiblings(t *testing.T) {
	sv, _ := startSupervisor(t, Config{NewTransfer: memFactory(0, func(id string, m *memTransfer) {
		if id == "stalled" {
			m.delay = time.Minute
		}
	})})
	for _, id := range []string{"stalled", "fast"} {
		if _, err := sv.Submit(JobSpec{ID: id, Bytes: 4e8, Epoch: 1, MaxNC: 32}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "the fast job to finish beside a stalled one", func() bool {
		st, err := sv.Job("fast")
		return err == nil && st.State == JobDone
	})
	if st, err := sv.Job("stalled"); err != nil || st.State != JobRunning || st.Epochs != 0 {
		t.Fatalf("stalled job = %+v (%v), want running with no epoch settled", st, err)
	}
}

// TestSimulatedJobEndToEnd exercises the default transfer factory's
// testbed branch — a spec with no Addr builds a private simulation
// fabric — which every other test bypasses with memFactory. The epoch
// must comfortably exceed the source endpoint's 3 s restart dead time
// (the zero-value policy restarts processes every epoch): an epoch
// shorter than that moves zero bytes per epoch, faithfully, forever.
func TestSimulatedJobEndToEnd(t *testing.T) {
	sv, _ := startSupervisor(t, Config{})
	const volume = 3e9
	for _, spec := range []JobSpec{
		{ID: "sim-tacc", Testbed: "tacc", Bytes: volume, Epoch: 30, MaxNC: 32},
		{ID: "sim-uc", Testbed: "uchicago", Bytes: volume, Epoch: 30, MaxNC: 32, Tfr: 2, Cmp: 8},
	} {
		if _, err := sv.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 30*time.Second, "simulated jobs to finish", func() bool {
		for _, st := range sv.Jobs() {
			if st.State != JobDone {
				return false
			}
		}
		return true
	})
	for _, id := range []string{"sim-tacc", "sim-uc"} {
		st, err := sv.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(st.Bytes-volume) > 1 {
			t.Errorf("job %s moved %.0f bytes, want %.0f", id, st.Bytes, volume)
		}
		if st.Throughput <= 0 {
			t.Errorf("job %s reports throughput %.0f, want > 0", id, st.Throughput)
		}
	}
}
