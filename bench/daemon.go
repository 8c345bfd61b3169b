package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dstune/internal/dataset"
	"dstune/internal/experiment"
	"dstune/internal/gridftp"
	"dstune/internal/load"
	"dstune/internal/obs"
	"dstune/internal/service"
	"dstune/internal/tuner"
	"dstune/internal/xfer"
)

// daemon is a dstuned in this process: the real service.Supervisor
// behind its real HTTP handler, reached over a loopback listener the
// way a client reaches cmd/dstuned.
type daemon struct {
	dir    string
	obsv   *obs.Observer
	sv     *service.Supervisor
	srv    *httptest.Server
	client *http.Client
	cancel context.CancelFunc
}

// transferWrap decorates the transfer of job id.
type transferWrap func(id string, t xfer.Transferer) xfer.Transferer

// startDaemon starts a supervisor with its state under dir. A non-nil
// wrap makes it a traced daemon: every job's transfer is built by
// buildTransfer (the same transfer the default factory builds) and
// passed through wrap.
func startDaemon(dir string, wrap transferWrap) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// The ring must hold a whole socket job's events: the epoch periods
	// are read back from it.
	obsv := obs.NewObserver(obs.ObserverConfig{EventBuffer: 1 << 16})
	cfg := service.Config{Dir: dir, Obs: obsv}
	if wrap != nil {
		cfg.NewTransfer = func(id string, spec service.JobSpec, resume *tuner.Checkpoint) (xfer.Transferer, error) {
			t, err := buildTransfer(obsv, id, spec, resume)
			if err != nil {
				return nil, err
			}
			return wrap(id, t), nil
		}
	}
	sv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	sv.Start(ctx)
	srv := httptest.NewServer(sv.Handler())
	// One kept-alive connection per submitter, not the default two in
	// all: a closed loop must not pay a TCP handshake per request.
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	return &daemon{dir: dir, obsv: obsv, sv: sv, srv: srv, client: client, cancel: cancel}, nil
}

// stop drains the supervisor and closes the listener.
func (d *daemon) stop() {
	d.cancel()
	d.sv.Wait()
	d.client.CloseIdleConnections()
	d.srv.Close()
}

// buildTransfer builds the transfer service's default factory builds
// for the job shapes the workloads submit: a private simulation fabric
// under constant load, or a gridftp client (bulk or dataset) against
// spec.Addr. The benchmark never restarts its daemon, so a resume is an
// error.
func buildTransfer(obsv *obs.Observer, id string, spec service.JobSpec, resume *tuner.Checkpoint) (xfer.Transferer, error) {
	if resume != nil {
		return nil, errors.New("bench: traced daemon cannot resume a job")
	}
	if spec.Addr != "" {
		ccfg := gridftp.ClientConfig{Addr: spec.Addr, Seed: spec.Seed, Obs: obsv.Session(id), Bytes: xfer.Unbounded}
		if spec.Bytes > 0 {
			ccfg.Bytes = spec.Bytes
		}
		if spec.Dataset != "" {
			ds, err := dataset.ParseSpec(spec.Dataset, spec.Seed)
			if err != nil {
				return nil, err
			}
			ccfg.Dataset, ccfg.Bytes = ds, 0
		}
		return gridftp.NewClient(ccfg)
	}
	if spec.Dataset != "" || spec.Testbed != "uchicago" {
		return nil, fmt.Errorf("bench: traced daemon builds uchicago bulk jobs only, got %+v", spec)
	}
	fabric, _, err := experiment.ANLtoUChicago().NewFabric(spec.Seed)
	if err != nil {
		return nil, err
	}
	if spec.Tfr != 0 || spec.Cmp != 0 {
		fabric.SetLoad(load.Constant(load.Load{Tfr: spec.Tfr, Cmp: spec.Cmp}), nil)
	}
	size := xfer.Unbounded
	if spec.Bytes > 0 {
		size = spec.Bytes
	}
	return fabric.NewTransfer(xfer.TransferConfig{Name: id, Bytes: size})
}

// submit POSTs one job and returns the 201 body.
func (d *daemon) submit(spec service.JobSpec) (service.JobStatus, error) {
	var st service.JobStatus
	body, err := json.Marshal(spec)
	if err != nil {
		return st, err
	}
	resp, err := d.client.Post(d.srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusCreated {
		return st, fmt.Errorf("bench: POST /jobs: %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	return st, json.Unmarshal(data, &st)
}

// status GETs one job.
func (d *daemon) status(id string) (service.JobStatus, error) {
	var st service.JobStatus
	resp, err := d.client.Get(d.srv.URL + "/jobs/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("bench: GET /jobs/%s: %s", id, resp.Status)
	}
	return st, json.Unmarshal(data, &st)
}

// jobTimes are the client-side timestamps of one job.
type jobTimes struct {
	// Post, Accepted, FirstEpoch and Terminal are when the POST was
	// sent, the 201 arrived, a poll first showed a settled epoch, and a
	// poll first showed a terminal state.
	Post, Accepted, FirstEpoch, Terminal time.Time
	// Polls and PollTime count the GET /jobs/{id} calls and their
	// summed latency.
	Polls    int
	PollTime time.Duration
	// Final is the terminal status.
	Final service.JobStatus
}

// terminal reports whether s is a state a job never leaves.
func terminal(s service.JobState) bool {
	switch s {
	case service.JobDone, service.JobFailed, service.JobCancelled, service.JobEvicted:
		return true
	}
	return false
}

// runJob submits spec and polls it every `every` until it is terminal:
// one turn of a closed loop. With a tracer it records the job,
// service.submit and service.first_epoch spans from this side of the
// HTTP API.
func (d *daemon) runJob(spec service.JobSpec, every time.Duration, tr *tracer) (jobTimes, error) {
	var jt jobTimes
	root := tr.open(spanJob, spec.ID, -1)
	jt.Post = time.Now()
	sub := tr.open(spanSubmit, spec.ID, root)
	st, err := d.submit(spec)
	tr.close(sub)
	if err != nil {
		return jt, err
	}
	jt.Accepted = time.Now()
	first := tr.open(spanFirstEpoch, spec.ID, root)
	tr.mark(first)
	deadline := jt.Accepted.Add(170 * time.Second)
	for {
		p0 := time.Now()
		st, err = d.status(st.ID)
		if err != nil {
			return jt, err
		}
		now := time.Now()
		jt.Polls++
		jt.PollTime += now.Sub(p0)
		if jt.FirstEpoch.IsZero() && st.Epochs >= 1 {
			jt.FirstEpoch = now
			tr.close(first)
		}
		if terminal(st.State) {
			jt.Terminal, jt.Final = now, st
			tr.close(root)
			return jt, nil
		}
		if now.After(deadline) {
			return jt, fmt.Errorf("bench: job %s still %s after %v", st.ID, st.State, now.Sub(jt.Accepted))
		}
		time.Sleep(every)
	}
}

// metricsSeries scrapes GET /metrics and returns the number of sample
// lines and the scrape's wall time.
func (d *daemon) metricsSeries() (series int, took time.Duration, err error) {
	t0 := time.Now()
	resp, err := d.client.Get(d.srv.URL + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, err
	}
	took = time.Since(t0)
	for _, line := range strings.Split(string(data), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			series++
		}
	}
	return series, took, nil
}

// journalEntries counts the files left in the daemon's journal
// directory: the jobs it still owes a completion.
func (d *daemon) journalEntries() (int, error) {
	entries, err := os.ReadDir(filepath.Join(d.dir, "journal"))
	if err != nil {
		return 0, err
	}
	return len(entries), nil
}

// checkpoint loads job id's last checkpoint, which the daemon leaves on
// disk after a terminal state.
func (d *daemon) checkpoint(id string) (*tuner.Checkpoint, error) {
	return tuner.LoadCheckpoint(filepath.Join(d.dir, "checkpoints", id+".ck"))
}

// epochEnds returns the transfer-clock times of session id's EpochEnd
// events, oldest first, from the observer's event ring.
func (d *daemon) epochEnds(id string) []float64 {
	var out []float64
	for _, ev := range d.obsv.Recorder().Events() {
		if ev.Type == obs.EventEpochEnd && ev.Session == id {
			out = append(out, ev.T)
		}
	}
	return out
}
