package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"runtime"
	"time"

	"dstune"
)

// figurePass is what one pass of the tuned figure set produced.
type figurePass struct {
	// Wall is the pass's wall time; Calls holds the wall of each of its
	// four harness groups.
	Wall  time.Duration
	Calls map[string]time.Duration
	// Sessions, Epochs, VSec and Bytes add up every returned trace:
	// tuned sessions, control epochs, final transfer-clock seconds and
	// simulated bytes.
	Sessions, Epochs int
	VSec, Bytes      float64
	// Gain is nm-tuner's mean throughput over the default's under each
	// Fig5 load.
	Gain []float64
	// Mallocs and AllocBytes are the heap allocations of the pass.
	Mallocs, AllocBytes uint64
}

// simDuration is the virtual length of every simulated transfer: the
// paper's 1800 s of 30 s epochs at full scale, so that the load step at
// t=1000 s is inside it; shorter only for -quick and sub-second runs.
func simDuration(scale float64) float64 {
	if scale >= 1 {
		return 1800
	}
	if d := 1800 * scale; d > 60 {
		return d
	}
	return 60
}

// runFigurePass runs the tuned figure set once through the dstune
// facade — TuneConcurrency over the five Fig5 loads, TuneBoth on both
// testbeds, CompareHeuristics, Simultaneous — and folds every
// repeatable trace into digest.
func runFigurePass(seed uint64, duration float64, digest io.Writer) (figurePass, error) {
	pass := figurePass{Calls: map[string]time.Duration{}}
	rc := dstune.RunConfig{Seed: seed, Duration: duration, Epoch: 30}
	uc, tacc := dstune.ANLtoUChicago(), dstune.ANLtoTACC()

	fold := func(name string, tr *dstune.Trace, digest io.Writer) error {
		if tr == nil || len(tr.Results) == 0 {
			return fmt.Errorf("bench: %s returned an empty trace", name)
		}
		pass.Sessions++
		pass.Epochs += len(tr.Results)
		pass.VSec += tr.Results[len(tr.Results)-1].Report.End
		for _, r := range tr.Results {
			pass.Bytes += r.Report.Bytes
		}
		return writeTrace(digest, name, tr)
	}
	foldSet := func(name string, res *dstune.TuningResult) error {
		for _, tn := range res.Order {
			if err := fold(name, res.Traces[tn], digest); err != nil {
				return err
			}
		}
		return nil
	}
	timed := func(group string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		pass.Calls[group] += time.Since(t0)
		return err
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := timed("tune_concurrency", func() error {
		for _, l := range dstune.Fig5Loads() {
			res, err := dstune.TuneConcurrency(uc, l, rc)
			if err != nil {
				return err
			}
			if err := foldSet("fig5/"+l.String(), res); err != nil {
				return err
			}
			nm, def := res.Traces["nm-tuner"].MeanThroughput(), res.Traces["default"].MeanThroughput()
			if def <= 0 {
				return fmt.Errorf("bench: default moved nothing under %s", l)
			}
			pass.Gain = append(pass.Gain, nm/def)
		}
		return nil
	})
	if err != nil {
		return pass, err
	}
	err = timed("tune_both", func() error {
		for _, tb := range []dstune.Testbed{tacc, uc} {
			res, err := dstune.TuneBoth(tb, rc)
			if err != nil {
				return err
			}
			if err := foldSet("both/"+tb.Name, res); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return pass, err
	}
	err = timed("compare_heuristics", func() error {
		res, err := dstune.CompareHeuristics(tacc, rc)
		if err != nil {
			return err
		}
		return foldSet("heur", res)
	})
	if err != nil {
		return pass, err
	}
	err = timed("simultaneous", func() error {
		res, err := dstune.Simultaneous("nm-tuner", rc)
		if err != nil {
			return err
		}
		// Two sessions stepping concurrently over one fabric do not
		// repeat bit for bit at the parent commit (about one run in
		// eight differs), so Simultaneous is counted but kept out of
		// the digest.
		if err := fold("simul/uchicago", res.UChicago, io.Discard); err != nil {
			return err
		}
		return fold("simul/tacc", res.TACC, io.Discard)
	})
	if err != nil {
		return pass, err
	}
	pass.Wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	pass.Mallocs, pass.AllocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return pass, nil
}

// digest48 returns the first 48 bits of h as a number a float64 holds
// exactly.
func digest48(h hash.Hash) float64 {
	sum := h.Sum(nil)
	return float64(binary.BigEndian.Uint64(sum[:8]) >> 16)
}

// heuristicsDigest runs CompareHeuristics alone and digests it: the
// repeatability check runs it twice with one seed and expects one
// digest.
func heuristicsDigest(seed uint64, duration float64) (float64, error) {
	res, err := dstune.CompareHeuristics(dstune.ANLtoTACC(), dstune.RunConfig{Seed: seed, Duration: duration, Epoch: 30})
	if err != nil {
		return 0, err
	}
	h := sha256.New()
	for _, tn := range res.Order {
		if err := writeTrace(h, "heur", res.Traces[tn]); err != nil {
			return 0, err
		}
	}
	return digest48(h), nil
}

// writeTrace feeds one trace to a digest as the JSON encoding of its
// epochs — what a checkpoint would hold: every tuned vector and every
// field of every report.
func writeTrace(w io.Writer, name string, tr *dstune.Trace) error {
	enc, err := json.Marshal(tr.Results)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s/%s:", name, tr.Tuner)
	_, err = w.Write(enc)
	return err
}

// setupSimFigures warms the simulator up: one short TuneConcurrency
// grows the heap and settles the GC pacer before anything is timed.
func setupSimFigures(rc *runCtx) (*env, error) {
	duration := 300.0
	if rc.quick {
		duration = 60
	}
	_, err := dstune.TuneConcurrency(dstune.ANLtoUChicago(), dstune.Fig5Loads()[3],
		dstune.RunConfig{Seed: rc.seed, Duration: duration, Epoch: 30})
	return &env{}, err
}

// runSimFigures is the sim-figures workload: passes of the tuned figure
// set, nothing but the simulator underneath.
func runSimFigures(rc *runCtx, _ *env) error {
	res := rc.res
	passes := int(rc.scale + 0.5)
	if passes < 1 {
		passes = 1
	}
	duration := simDuration(rc.scale)
	res.note("%d pass(es) of the figure set, %g s transfers, 30 s epochs, GOMAXPROCS=%d; no daemon, no sockets, no checkpoint",
		passes, duration, runtime.GOMAXPROCS(0))

	digest := sha256.New()
	var total figurePass
	calls := map[string][]float64{}
	cpu0 := cpuSeconds()
	for i := 0; i < passes; i++ {
		pass, err := runFigurePass(rc.seed+uint64(i), duration, digest)
		if err != nil {
			return err
		}
		total.Wall += pass.Wall
		total.Sessions += pass.Sessions
		total.Epochs += pass.Epochs
		total.VSec += pass.VSec
		total.Bytes += pass.Bytes
		total.Gain = append(total.Gain, pass.Gain...)
		total.Mallocs += pass.Mallocs
		total.AllocBytes += pass.AllocBytes
		for k, d := range pass.Calls {
			calls[k] = append(calls[k], d.Seconds())
		}
	}
	cpu := cpuSeconds() - cpu0
	wall := total.Wall.Seconds()

	// Operations are tuned sessions; a session that returned no trace
	// would have failed the pass above.
	res.Attempted, res.Failed = total.Sessions, 0
	gain := 0.0
	for i, g := range total.Gain {
		gain += g
		if g <= 1 {
			res.fail("nm-tuner did not beat the default under Fig5 load %d: gain %.3f", i%5, g)
		}
	}
	gain /= float64(len(total.Gain))

	// Equal seeds must give equal traces.
	d1, err := heuristicsDigest(rc.seed, duration)
	if err != nil {
		return err
	}
	d2, err := heuristicsDigest(rc.seed, duration)
	if err != nil {
		return err
	}
	if d1 != d2 {
		res.fail("CompareHeuristics with seed %d gave digests %x and %x", rc.seed, uint64(d1), uint64(d2))
	}

	if !rc.trace {
		res.set("goodput_MBps", total.Bytes/1e6/wall, 0)
		res.set("cpu_s_per_GiB", cpu/(total.Bytes/(1<<30)), 0)
		res.set("epochs_per_s", float64(total.Epochs)/wall, 0)
		res.set("sim_vsec_per_s", total.VSec/wall, 0)
		res.info("tuned_gain_x", "ratio", gain, len(total.Gain))
		res.info("sim.trace_digest", "count", digest48(digest), 0)
		return nil
	}
	res.set("tuned_gain_x", gain, len(total.Gain))
	res.set("sim.trace_digest", digest48(digest), 0)
	res.set("xfer.allocs_per_vsec", float64(total.Mallocs)/total.VSec, 0)
	res.set("xfer.alloc_bytes_per_vsec", float64(total.AllocBytes)/total.VSec, 0)
	for k, v := range calls {
		res.set("experiment."+k+"_s", median(v), len(v))
	}
	res.info("sim_vsec_per_s", "s/s", total.VSec/wall, 0)
	return traceSimFigures(rc, duration/2)
}
