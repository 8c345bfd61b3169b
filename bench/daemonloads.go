package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dstune/internal/service"
)

// churnTuners are the strategies churn jobs rotate over: the three
// direct searches and one learned strategy, so that every strategy
// constructor and snapshot format is on the per-job path.
var churnTuners = []string{"cs-tuner", "nm-tuner", "cd-tuner", "rl-bandit"}

// Sizes at baseSeconds, chosen so that each workload takes about that
// long on this repository's two-core reference box (see README.md for
// the numbers).
const (
	churnJobs        = 1600 // jobs of daemon-churn
	churnEpochs      = 12   // epochs per churn job
	longEpochs       = 2000 // epochs of the daemon-long-session job
	simEpoch         = 6    // control epoch of simulated daemon jobs, virtual seconds (see churnSpec)
	socketEpoch      = 0.25 // control epoch of both socket workloads, seconds
	filesCount       = 300000
	filesSpecPattern = "lognormal:%d:48KiB:1.2"
)

// setupDaemon builds the state directory and an untraced daemon and
// pushes a few short jobs through it, so that HTTP connections, shard
// goroutines and the heap exist before anything is timed.
func setupDaemon(rc *runCtx) (*env, error) {
	d, err := newDaemonIn(rc, nil)
	if err != nil {
		return nil, err
	}
	e := &env{daemon: d}
	for i := 0; i < 8; i++ {
		spec := service.JobSpec{ID: fmt.Sprintf("warm-%d", i), Tuner: churnTuners[i%len(churnTuners)],
			Seed: rc.seed + uint64(i), Epoch: simEpoch, Budget: 4 * simEpoch}
		if _, err := d.runJob(spec, time.Millisecond, nil); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// daemonSeq numbers the state directories of one run.
var daemonSeq atomic.Int64

// newDaemonIn starts a daemon in a fresh subdirectory of the run's
// scratch directory.
func newDaemonIn(rc *runCtx, wrap transferWrap) (*daemon, error) {
	return startDaemon(filepath.Join(rc.dir, fmt.Sprintf("dstuned-%d", daemonSeq.Add(1))), wrap)
}

// churnSpec is the i-th churn job: tuners round-robin, four tenants,
// external traffic 0/2/4/6, seeds derived from the run's seed.
func churnSpec(prefix string, seed uint64, i int) service.JobSpec {
	return service.JobSpec{
		ID:     fmt.Sprintf("%s-%05d", prefix, i),
		Tenant: fmt.Sprintf("tenant-%d", i%4),
		Tuner:  churnTuners[i%len(churnTuners)],
		Seed:   seed*1000003 + uint64(i) + 1,
		Epoch:  simEpoch,
		Budget: simEpoch * churnEpochs,
		Tfr:    2 * ((i / 4) % 4),
	}
}

// loadOut is what one timed pass through a daemon produced.
type loadOut struct {
	// Wall and CPU cover the pass: first POST to last terminal state.
	Wall, CPU float64
	// Jobs holds every job's client-side timestamps, in index order.
	Jobs []jobTimes
	// Epochs and Bytes add up the jobs' settled epochs and credited
	// bytes; VSec is the transfer-clock time those epochs stand for,
	// epochs times the nominal epoch.
	Epochs      int
	Bytes, VSec float64
}

// e2e reports the four rate metrics every workload derives the same way.
func (o loadOut) e2e(res *result, childCPU float64) {
	res.set("goodput_MBps", o.Bytes/1e6/o.Wall, 0)
	res.set("cpu_s_per_GiB", (o.CPU+childCPU)/(o.Bytes/(1<<30)), 0)
	res.set("epochs_per_s", float64(o.Epochs)/o.Wall, o.Epochs)
	res.set("sim_vsec_per_s", o.VSec/o.Wall, 0)
}

// churnPass pushes n churn jobs through d from rc.p submitters in a
// closed loop: each submitter POSTs a job, polls it every millisecond
// until it is terminal, and only then takes the next.
func churnPass(rc *runCtx, d *daemon, prefix string, n int, tr *tracer) (loadOut, error) {
	out := loadOut{Jobs: make([]jobTimes, n)}
	errs := make([]error, rc.p)
	var next atomic.Int64
	var wg sync.WaitGroup
	// A pass that runs away (a machine far slower than the one the job
	// count was sized on) stops taking jobs, so that the run still ends
	// inside the driver's time limit.
	giveUp := time.Now().Add(time.Duration(6 * rc.seconds * float64(time.Second)))
	cpu0, t0 := cpuSeconds(), time.Now()
	for s := 0; s < rc.p; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || time.Now().After(giveUp) {
					return
				}
				jt, err := d.runJob(churnSpec(prefix, rc.seed, i), time.Millisecond, tr)
				if err != nil {
					errs[s] = err
					return
				}
				out.Jobs[i] = jt
			}
		}(s)
	}
	wg.Wait()
	out.Wall, out.CPU = time.Since(t0).Seconds(), cpuSeconds()-cpu0
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	for _, jt := range out.Jobs {
		out.Epochs += jt.Final.Epochs
		out.Bytes += jt.Final.Bytes
		out.VSec += simEpoch * float64(jt.Final.Epochs)
	}
	return out, nil
}

// checkChurn applies daemon-churn's output checks and counts its
// operations: one job each.
func checkChurn(res *result, d *daemon, out loadOut) {
	for i, jt := range out.Jobs {
		res.Attempted++
		switch {
		case jt.Final.ID == "":
			res.Failed++
			res.fail("churn job %d was never run (pass gave up)", i)
		case jt.Final.State != service.JobDone || jt.Final.Bytes <= 0:
			res.Failed++
			res.fail("churn job %s ended %s with %v bytes: %s", jt.Final.ID, jt.Final.State, jt.Final.Bytes, jt.Final.Error)
		case jt.Final.Epochs != churnEpochs:
			res.fail("churn job %s settled %d epochs, want %d", jt.Final.ID, jt.Final.Epochs, churnEpochs)
		}
	}
	if n, err := d.journalEntries(); err != nil {
		res.fail("journal: %v", err)
	} else if n != 0 {
		res.fail("journal holds %d entries after every job ended, want 0", n)
	}
}

// jobLatencies returns the jobs' POST-to-terminal, POST-to-201 and
// 201-to-first-epoch times in milliseconds and their mean poll time in
// microseconds.
func jobLatencies(jobs []jobTimes) (total, submit, first, poll []float64) {
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	for _, jt := range jobs {
		if jt.Terminal.IsZero() {
			continue
		}
		total = append(total, ms(jt.Terminal.Sub(jt.Post)))
		submit = append(submit, ms(jt.Accepted.Sub(jt.Post)))
		if !jt.FirstEpoch.IsZero() {
			first = append(first, ms(jt.FirstEpoch.Sub(jt.Accepted)))
		}
		if jt.Polls > 0 {
			poll = append(poll, float64(jt.PollTime)/1e3/float64(jt.Polls))
		}
	}
	return total, submit, first, poll
}

// reportService reports what the daemon's clients saw: into the
// declared per-layer metrics on a traced run, as information otherwise.
func reportService(res *result, d *daemon, out loadOut) {
	total, submit, first, poll := jobLatencies(out.Jobs)
	res.report("jobs_per_s", "1/s", float64(len(total))/out.Wall, len(total))
	res.report("job_latency_ms_p50", "ms", median(total), len(total))
	if v, ok := percentile(total, 90); ok {
		res.report("job_latency_ms_p90", "ms", v, len(total))
	}
	if v, ok := percentile(total, 99); ok {
		res.info("job_latency_ms_p99", "ms", v, len(total))
	}
	res.report("service.submit_ms_p50", "ms", median(submit), len(submit))
	if v, ok := percentile(submit, 90); ok {
		res.report("service.submit_ms_p90", "ms", v, len(submit))
	}
	res.report("service.first_epoch_ms_p50", "ms", median(first), len(first))
	res.report("service.status_us", "us", median(poll), len(poll))
	if series, took, err := d.metricsSeries(); err != nil {
		res.fail("GET /metrics: %v", err)
	} else {
		res.report("service.metrics_series", "count", float64(series), 0)
		res.report("obs.scrape_ms", "ms", float64(took)/1e6, 0)
	}
}

// runChurn is the daemon-churn workload.
func runChurn(rc *runCtx, e *env) error {
	n := int(churnJobs*rc.scale + 0.5)
	if n < 2*rc.p {
		n = 2 * rc.p
	}
	rc.res.note("closed loop, %d submitters, %d jobs of %d simulated 6 s epochs, 1 ms status poll", rc.p, n, churnEpochs)
	if rc.trace {
		return traceChurn(rc, e, n)
	}
	out, err := churnPass(rc, e.daemon, "churn", n, nil)
	if err != nil {
		return err
	}
	checkChurn(rc.res, e.daemon, out)
	out.e2e(rc.res, 0)
	reportService(rc.res, e.daemon, out)
	return nil
}

// longSpec is the daemon-long-session job.
func longSpec(id string, seed uint64, epochs int) service.JobSpec {
	return service.JobSpec{ID: id, Tuner: "cs-tuner", Seed: seed, Epoch: simEpoch, Budget: simEpoch * float64(epochs)}
}

// singlePass runs one job through d, polling every 10 ms, and fills a
// loadOut from its final status and last checkpoint.
func singlePass(d *daemon, spec service.JobSpec, tr *tracer) (loadOut, error) {
	cpu0 := cpuSeconds()
	jt, err := d.runJob(spec, 10*time.Millisecond, tr)
	if err != nil {
		return loadOut{}, err
	}
	out := loadOut{Wall: jt.Terminal.Sub(jt.Accepted).Seconds(), CPU: cpuSeconds() - cpu0,
		Jobs: []jobTimes{jt}, Epochs: jt.Final.Epochs, Bytes: jt.Final.Bytes}
	out.VSec = spec.Epoch * float64(out.Epochs)
	return out, nil
}

// checkSingle applies the checks every one-job workload shares and
// counts epochs as operations: the job must end done, its last
// checkpoint must load with as many epochs as the API reports, and a
// transient epoch is a failed operation.
func checkSingle(res *result, d *daemon, out loadOut) {
	jt := out.Jobs[0]
	if jt.Final.State != service.JobDone {
		res.fail("job %s ended %s: %s", jt.Final.ID, jt.Final.State, jt.Final.Error)
	}
	ck, err := d.checkpoint(jt.Final.ID)
	if err != nil {
		res.fail("final checkpoint: %v", err)
		return
	}
	if ck.Epochs != jt.Final.Epochs {
		res.fail("checkpoint holds %d epochs, the API reports %d", ck.Epochs, jt.Final.Epochs)
	}
	res.Attempted += ck.Epochs
	for _, rec := range ck.Trace {
		if rec.Transient {
			res.Failed++
		}
	}
	if n, err := d.journalEntries(); err != nil {
		res.fail("journal: %v", err)
	} else if n != 0 {
		res.fail("journal holds %d entries after the job ended, want 0", n)
	}
}

// runLongSession is the daemon-long-session workload.
func runLongSession(rc *runCtx, e *env) error {
	epochs := int(longEpochs*rc.scale + 0.5)
	if epochs < 20 {
		epochs = 20
	}
	rc.res.note("one simulated cs-tuner job, %d epochs of 6 virtual s, file checkpoint every epoch, 10 ms status poll", epochs)
	if rc.trace {
		return traceLongSession(rc, e, epochs)
	}
	out, err := singlePass(e.daemon, longSpec("long", rc.seed, epochs), nil)
	if err != nil {
		return err
	}
	checkSingle(rc.res, e.daemon, out)
	if d := out.Epochs - epochs; d < -1 || d > 1 {
		rc.res.fail("long session settled %d epochs, want %d±1", out.Epochs, epochs)
	}
	out.e2e(rc.res, 0)
	reportService(rc.res, e.daemon, out)
	return nil
}
