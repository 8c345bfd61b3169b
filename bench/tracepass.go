package main

import (
	"fmt"
	"path/filepath"

	"dstune/internal/dataset"
	"dstune/internal/directsearch"
	"dstune/internal/experiment"
	"dstune/internal/load"
	"dstune/internal/obs"
	"dstune/internal/service"
	"dstune/internal/tuner"
	"dstune/internal/xfer"
)

// A traced run has up to three passes. The reference pass is the
// untraced workload at half size, through the untraced daemon. The
// traced pass is the same half through a daemon whose transfers are
// decorated, with the job, service.submit and xfer.run spans; the
// difference between the two is the tracing overhead. The engine pass
// drives the same sessions through tuner.SessionRuntime with the
// strategy, the transfer and the checkpoint writer decorated, which is
// the only way to see inside a step without editing the engine.

// tracedDaemon starts a daemon whose every transfer is wrapped in a
// tracedTransfer recording into tr.
func tracedDaemon(rc *runCtx, tr *tracer) (*daemon, error) {
	return newDaemonIn(rc, func(id string, t xfer.Transferer) xfer.Transferer {
		return &tracedTransfer{Transferer: t, tr: tr, job: id}
	})
}

// adoptRuns makes every xfer.run span of tr a child of its job's root
// span: the decorator inside the daemon cannot know the index of a span
// the HTTP client opened. A job may start its first epoch before its
// submitter has read the 201; admission is over by then, so the
// service.submit span is cut off where the first xfer.run begins and
// siblings never overlap.
func adoptRuns(tr *tracer) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	roots, submits := map[string]int{}, map[string]int{}
	for i, s := range tr.spans {
		switch s.Name {
		case spanJob:
			roots[s.Job] = i
		case spanSubmit:
			submits[s.Job] = i
		}
	}
	for i, s := range tr.spans {
		if s.Name != spanRun || s.Parent >= 0 {
			continue
		}
		if r, ok := roots[s.Job]; ok {
			tr.spans[i].Parent = r
		}
		if sub, ok := submits[s.Job]; ok && s.Start < tr.spans[sub].End && s.Start >= tr.spans[sub].Start {
			tr.spans[sub].End = s.Start
		}
	}
}

// checkSameCredit compares a traced daemon pass over simulated jobs with
// the untraced pass beside it. Same seeds, same simulator: the traced
// daemon must credit the bytes the untraced one did, or buildTransfer
// has drifted from the service's own factory.
func checkSameCredit(res *result, ref, got loadOut) {
	if ref.Bytes != got.Bytes || ref.Epochs != got.Epochs {
		res.fail("traced daemon credited %v bytes over %d epochs, untraced %v over %d", got.Bytes, got.Epochs, ref.Bytes, ref.Epochs)
	}
}

// finishTrace writes the trace files, reports the span bookkeeping and
// the overhead of tracing, and runs the layer probes.
func finishTrace(rc *runCtx, untraced, traced float64, tracers map[string]*tracer) error {
	res := rc.res
	var all []*tracer
	for _, name := range sortedKeys(tracers) {
		tr := tracers[name]
		all = append(all, tr)
		path := filepath.Join(rc.traceDir, fmt.Sprintf("%s-seed%d-%s.trace.json", rc.res.Workload, rc.seed, name))
		if err := tr.writeFile(path, rc.res.Workload, rc.seed); err != nil {
			return err
		}
		res.note("trace (%s pass): %d spans in %s", name, len(tr.snapshot()), path)
	}
	res.set("trace.self_sum_pct", selfSumPct(res, all...), 0)
	if untraced > 0 {
		// Positive = tracing made the pass slower. Both passes are rates
		// (higher is better), so the sign is flipped.
		res.set("trace.overhead_pct", 100*(untraced-traced)/untraced, 0)
	}
	return runProbes(rc)
}

// traceChurn is daemon-churn's traced run.
func traceChurn(rc *runCtx, e *env, n int) error {
	res := rc.res
	half := n / 2
	ref, err := churnPass(rc, e.daemon, "churn", half, nil)
	if err != nil {
		return err
	}
	checkChurn(res, e.daemon, ref)

	tr := newTracer()
	td, err := tracedDaemon(rc, tr)
	if err != nil {
		return err
	}
	defer td.stop()
	got, err := churnPass(rc, td, "churn", half, tr)
	if err != nil {
		return err
	}
	adoptRuns(tr)
	res.Attempted, res.Failed = 0, 0 // count the traced pass, not both
	checkChurn(res, td, got)
	checkSameCredit(res, ref, got)
	reportService(res, td, got)
	self := splitSelf(tr.snapshot())
	if jobs := self.Count[spanJob]; jobs > 0 {
		res.set("service.self_ms_per_job", float64(self.Self[spanJob])/1e6/float64(jobs), jobs)
	}

	// Engine pass: a quarter of the jobs, stepped directly.
	var sessions []engineSession
	for i := 0; i < (n+3)/4; i++ {
		sessions = append(sessions, sessionFromSpec(churnSpec("engine", rc.seed, i)))
	}
	etr := newTracer()
	eng, err := enginePass(rc, etr, "traced", sessions)
	if err != nil {
		return err
	}
	reportEngine(res, etr, eng, true)
	return finishTrace(rc, float64(half)/ref.Wall, float64(half)/got.Wall, map[string]*tracer{"daemon": tr, "engine": etr})
}

// traceLongSession is daemon-long-session's traced run.
func traceLongSession(rc *runCtx, e *env, epochs int) error {
	res := rc.res
	half := epochs / 2
	ref, err := singlePass(e.daemon, longSpec("long", rc.seed, half), nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	td, err := tracedDaemon(rc, tr)
	if err != nil {
		return err
	}
	defer td.stop()
	got, err := singlePass(td, longSpec("long", rc.seed, half), tr)
	if err != nil {
		return err
	}
	adoptRuns(tr)
	checkSingle(res, td, got)
	checkSameCredit(res, ref, got)
	reportService(res, td, got)
	self := splitSelf(tr.snapshot())
	res.set("service.self_ms_per_job", float64(self.Self[spanJob])/1e6, 1)

	etr := newTracer()
	eng, err := enginePass(rc, etr, "traced", []engineSession{sessionFromSpec(longSpec("engine", rc.seed, epochs))})
	if err != nil {
		return err
	}
	if d := eng.Epochs - epochs; d < -1 || d > 1 {
		res.fail("engine pass settled %d epochs, want %d±1", eng.Epochs, epochs)
	}
	reportEngine(res, etr, eng, true)
	return finishTrace(rc, float64(ref.Epochs)/ref.Wall, float64(got.Epochs)/got.Wall, map[string]*tracer{"daemon": tr, "engine": etr})
}

// traceSocket is the traced run of both socket workloads. spec builds
// the job for a pass of the given share of the workload; ds returns the
// dataset that job moves (nil for the bulk stream).
func traceSocket(rc *runCtx, e *env, spec func(id string, share float64) service.JobSpec, ds func(service.JobSpec) (dataset.Dataset, error)) error {
	res := rc.res
	check := func(d *daemon, sp service.JobSpec, out loadOut, child sinkStats) error {
		checkSingle(res, d, out)
		if ds == nil {
			checkBulk(res, out, child)
			return nil
		}
		files, err := ds(sp)
		if err != nil {
			return err
		}
		checkFiles(res, d, sp.ID, files, out, child)
		return nil
	}
	refSpec := spec("ref", 0.5)
	ref, refChild, err := socketPass(e, e.daemon, refSpec, nil)
	if err != nil {
		return err
	}
	if err := check(e.daemon, refSpec, ref, refChild); err != nil {
		return err
	}

	tr := newTracer()
	td, err := tracedDaemon(rc, tr)
	if err != nil {
		return err
	}
	defer td.stop()
	gotSpec := spec("traced", 0.5)
	got, child, err := socketPass(e, td, gotSpec, tr)
	if err != nil {
		return err
	}
	adoptRuns(tr)
	res.Attempted, res.Failed = 0, 0
	if err := check(td, gotSpec, got, child); err != nil {
		return err
	}
	files := 0
	if ds != nil {
		files = res.Attempted
	}
	reportService(res, td, got)
	reportSocket(res, td, gotSpec.ID, got, child, files)
	self := splitSelf(tr.snapshot())
	res.set("service.self_ms_per_job", float64(self.Self[spanJob])/1e6, 1)

	// Engine pass against the same gridftpd child.
	etr := newTracer()
	eng, err := enginePass(rc, etr, "traced", []engineSession{sessionFromSpec(spec("engine", 0.5))})
	if err != nil {
		return err
	}
	reportEngine(res, etr, eng, false)
	reportGridftp(res, eng)
	if err := socketProbes(rc, e.sink.Addr); err != nil {
		return err
	}
	return finishTrace(rc, ref.Bytes/ref.Wall, got.Bytes/got.Wall, map[string]*tracer{"daemon": tr, "engine": etr})
}

// reportGridftp derives the client-side data-plane metrics from the
// reports a traced engine pass collected.
func reportGridftp(res *result, eng engineOut) {
	tt := eng.Transfers[0]
	n := len(tt.reports)
	if n < 3 {
		return
	}
	var over, dead, recon, lag []float64
	var dials, files int
	var syscalls int64
	// The first epoch pays for the cold stripe (and the MANIFEST), the
	// last is cut short: both are left out of the per-epoch medians.
	for i := 1; i < n-1; i++ {
		rep, wall := tt.reports[i], tt.walls[i]
		over = append(over, (wall-socketEpoch)*1e3)
		dead = append(dead, rep.DeadTime*1e3)
		recon = append(recon, (wall-rep.DeadTime-socketEpoch)*1e3)
		dials += rep.Dials
		if rep.FirstByteLag > 0 {
			lag = append(lag, rep.FirstByteLag*1e3)
		}
	}
	for _, rep := range tt.reports {
		files += rep.Files
		syscalls += rep.Syscalls
	}
	res.set("gridftp.run_overhead_ms_p50", median(over), len(over))
	res.set("gridftp.dead_time_ms_p50", median(dead), len(dead))
	res.set("gridftp.reconcile_ms_p50", median(recon), len(recon))
	res.set("gridftp.dials_per_epoch", float64(dials)/float64(n-2), n-2)
	res.set("gridftp.client_cpu_s_per_GiB", eng.CPU/(eng.Bytes/(1<<30)), 0)
	if files > 0 {
		res.set("gridftp.syscalls_per_file", float64(syscalls)/float64(files), files)
		res.set("gridftp.first_byte_lag_ms_p50", median(lag), len(lag))
		res.set("gridftp.manifest_ms", tt.reports[0].DeadTime*1e3, 0)
	}
}

// traceSimFigures is the rest of sim-figures' traced run: the facade
// takes no decorators, so the engine pass steps one nm-tuner session
// per Fig5 load over the same testbed fabric, decorated and then bare.
func traceSimFigures(rc *runCtx, duration float64) error {
	var sessions []engineSession
	for i, l := range experiment.Fig5Loads() {
		l := l
		id := fmt.Sprintf("fig5-%d", i)
		cfg := tuner.Config{Epoch: 30, Budget: duration, Seed: rc.seed,
			Box: directsearch.MustBox([]int{1}, []int{128}), Start: []int{2}, Map: tuner.MapNC(8)}
		sessions = append(sessions, engineSession{id: id, strategy: "nm-tuner", cfg: cfg,
			transfer: func(*obs.Observer) (xfer.Transferer, error) {
				f, _, err := experiment.ANLtoUChicago().NewFabric(rc.seed)
				if err != nil {
					return nil, err
				}
				f.SetLoad(load.Constant(l), nil)
				return f.NewTransfer(xfer.TransferConfig{Name: id, Bytes: xfer.Unbounded, Policy: xfer.RestartEveryEpoch})
			}})
	}
	etr := newTracer()
	eng, err := enginePass(rc, etr, "traced", sessions)
	if err != nil {
		return err
	}
	bare, err := enginePass(rc, nil, "bare", sessions)
	if err != nil {
		return err
	}
	if eng.Bytes != bare.Bytes {
		rc.res.fail("decorated engine pass moved %v simulated bytes, bare pass %v", eng.Bytes, bare.Bytes)
	}
	reportEngine(rc.res, etr, eng, true)
	return finishTrace(rc, bare.VSec/bare.Wall, eng.VSec/eng.Wall, map[string]*tracer{"engine": etr})
}
