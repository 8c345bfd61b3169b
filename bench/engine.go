package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"dstune/internal/directsearch"
	"dstune/internal/obs"
	"dstune/internal/service"
	"dstune/internal/tuner"
	"dstune/internal/xfer"
)

// engineSession describes one tuning session the engine pass drives
// through tuner.SessionRuntime directly, with no daemon around it: the
// strategy by name, its search box, and the transfer it tunes.
type engineSession struct {
	id       string
	strategy string
	// cfg carries epoch, budget, seed, box, start and map.
	cfg tuner.Config
	// transfer builds the session's transfer; o is the observer view
	// the session reports to.
	transfer func(o *obs.Observer) (xfer.Transferer, error)
}

// sessionFromSpec turns a job spec into the session dstuned would build
// for it: the same box, start and parameter map service.buildRuntime
// picks for the job shapes the workloads submit.
func sessionFromSpec(spec service.JobSpec) engineSession {
	maxNC, np := spec.MaxNC, spec.NP
	if maxNC == 0 {
		maxNC = 128
	}
	if np == 0 {
		np = 8
	}
	maxNP := spec.MaxNP
	if maxNP == 0 {
		maxNP = 16
	}
	cfg := tuner.Config{Epoch: spec.Epoch, Budget: spec.Budget, Seed: spec.Seed}
	if spec.Dataset != "" {
		// Three tuned dimensions: [nc, np, pp], np pinned by its bound.
		cfg.Box = directsearch.MustBox([]int{1, 1, 1}, []int{maxNC, maxNP, 32})
		cfg.Start = []int{2, 8, 4}
		cfg.Map = tuner.MapNCNPPP()
	} else {
		cfg.Box = directsearch.MustBox([]int{1}, []int{maxNC})
		cfg.Start = []int{2}
		cfg.Map = tuner.MapNC(np)
	}
	tn := spec.Tuner
	if tn == "" {
		tn = "cs-tuner"
	}
	if spec.Testbed == "" {
		spec.Testbed = "uchicago"
	}
	return engineSession{id: spec.ID, strategy: tn, cfg: cfg,
		transfer: func(o *obs.Observer) (xfer.Transferer, error) { return buildTransfer(o, spec.ID, spec, nil) }}
}

// engineOut is what an engine pass produced.
type engineOut struct {
	// Wall and CPU cover the stepping of every session.
	Wall, CPU float64
	// Epochs, Bytes and VSec add up the sessions.
	Epochs      int
	Bytes, VSec float64
	// Transfers and Checkpoints are the decorators of a traced pass, in
	// session order; nil for a plain pass.
	Transfers   []*tracedTransfer
	Checkpoints []*tracedCheckpoint
}

// enginePass steps every session to its end, one after the other. With
// a tracer the strategy, the transfer and the checkpoint writer are
// decorated and each Step becomes a tuner.step span; without one the
// very same sessions run bare, which is the reference the tracing
// overhead is measured against.
func enginePass(rc *runCtx, tr *tracer, tag string, sessions []engineSession) (engineOut, error) {
	var out engineOut
	observer := obs.NewObserver(obs.ObserverConfig{})
	ctx := context.Background()
	for _, es := range sessions {
		cfg := es.cfg
		cfg.Obs = observer.Session(es.id)
		strat, err := tuner.NewStrategy(es.strategy, cfg)
		if err != nil {
			return out, err
		}
		transfer, err := es.transfer(observer)
		if err != nil {
			return out, err
		}
		file := tuner.NewFileCheckpoint(filepath.Join(rc.dir, fmt.Sprintf("engine-%s-%s.ck", tag, es.id)))
		var ckw tuner.CheckpointWriter = file
		step := -1
		if tr != nil {
			tt := &tracedTransfer{Transferer: transfer, tr: tr, job: es.id, step: &step}
			tc := &tracedCheckpoint{inner: file, tr: tr, job: es.id, step: &step}
			strat = &tracedStrategy{Strategy: strat, tr: tr, job: es.id, step: &step}
			transfer, ckw = tt, tc
			out.Transfers = append(out.Transfers, tt)
			out.Checkpoints = append(out.Checkpoints, tc)
		}
		rt, err := tuner.NewSessionRuntime(
			tuner.FleetConfig{Epoch: es.cfg.Epoch, Budget: es.cfg.Budget, Obs: observer},
			tuner.FleetSession{ID: es.id, Name: es.id, Strategy: strat, Transfers: []xfer.Transferer{transfer},
				Maps: []tuner.ParamMap{es.cfg.Map}, Seed: es.cfg.Seed, Checkpoint: ckw})
		if err != nil {
			return out, err
		}
		cpu0, t0 := cpuSeconds(), time.Now()
		for !rt.Done() {
			step = tr.open(spanStep, es.id, -1)
			info := rt.Step(ctx)
			tr.close(step)
			if info.Done && info.Err != nil {
				return out, fmt.Errorf("engine session %s: %w", es.id, info.Err)
			}
		}
		out.Wall += time.Since(t0).Seconds()
		out.CPU += cpuSeconds() - cpu0
		out.Epochs += rt.Epochs()
		out.Bytes += rt.Bytes()
		out.VSec += es.cfg.Epoch * float64(rt.Epochs())
	}
	return out, nil
}

// sum adds up xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// around returns the median of the (up to) 11 values centred on index
// i, or ok=false when xs does not reach i.
func around(xs []float64, i int) (float64, bool) {
	if i >= len(xs) {
		return 0, false
	}
	lo, hi := i-5, i+6
	if lo < 0 {
		lo = 0
	}
	if hi > len(xs) {
		hi = len(xs)
	}
	return median(xs[lo:hi]), true
}

// reportEngine turns a traced engine pass into the per-layer metrics of
// the epoch engine, the strategy and the checkpoint. On the simulator an
// epoch has no nominal wall time, so its whole step is epoch overhead;
// the socket workloads read theirs off the observer's events instead.
func reportEngine(res *result, tr *tracer, out engineOut, simulated bool) {
	spans := tr.snapshot()
	self := splitSelf(spans)
	steps := durationsMS(spans, spanStep)
	res.set("tuner.step_ms_p50", median(steps), len(steps))
	if simulated {
		res.set("epoch_overhead_ms_p50", median(steps), len(steps))
	}
	if v, ok := percentile(steps, 90); ok {
		res.set("tuner.step_ms_p90", v, len(steps))
	}
	if n := self.Count[spanStep]; n > 0 {
		res.set("tuner.self_us_per_epoch", float64(self.Self[spanStep])/1e3/float64(n), n)
	}
	us := func(name string) (float64, int) {
		d := durationsMS(spans, name)
		return median(d) * 1e3, len(d)
	}
	for metric, name := range map[string]string{"strategy.propose_us": spanPropose,
		"strategy.observe_us": spanObserve, "strategy.snapshot_us": spanSnapshot} {
		v, n := us(name)
		res.set(metric, v, n)
	}
	runs := durationsMS(spans, spanRun)
	res.set("xfer.run_ms_p50", median(runs), len(runs))

	// Checkpoint cost by epoch index, from the longest session.
	var longest *tracedCheckpoint
	var bytes int64
	for _, c := range out.Checkpoints {
		bytes += c.bytes
		if longest == nil || len(c.saveMS) > len(longest.saveMS) {
			longest = c
		}
	}
	if longest != nil {
		for _, at := range []int{10, 1000, 2000} {
			if v, ok := around(longest.saveMS, at-1); ok {
				res.set(fmt.Sprintf("checkpoint.save_ms_at_%d", at), v, 11)
			}
		}
	}
	res.set("checkpoint.bytes_total", float64(bytes), 0)
	saves := durationsMS(spans, spanSave)
	if total := sum(steps); total > 0 {
		res.set("checkpoint.share_pct", 100*sum(saves)/total, len(saves))
	}
}

// selfSumPct checks the span trees of the given tracers — children
// inside their parents, self times adding up to the roots — and returns
// the share of root time the self times account for.
func selfSumPct(res *result, tracers ...*tracer) float64 {
	var sum, root int64
	for _, tr := range tracers {
		st := splitSelf(tr.snapshot())
		if st.Escaped > 0 {
			res.fail("%d spans reach outside their parent", st.Escaped)
		}
		sum += st.sum()
		root += st.Root
	}
	if root == 0 {
		return 0
	}
	pct := 100 * float64(sum) / float64(root)
	if pct < 98 || pct > 102 {
		res.fail("per-layer self times add up to %.2f%% of the root spans, want 100±2", pct)
	}
	return pct
}
