package main

import (
	"fmt"
	"time"

	"dstune/internal/dataset"
	"dstune/internal/service"
)

// setupSocket starts the gridftpd child and a daemon, and runs a
// two-epoch bulk job between them so that the first timed epoch does
// not pay for the first connection either side ever made.
func setupSocket(rc *runCtx) (*env, error) {
	sink, err := startSink()
	if err != nil {
		return nil, err
	}
	e := &env{sink: sink}
	if e.daemon, err = newDaemonIn(rc, nil); err != nil {
		e.close()
		return nil, err
	}
	warm := bulkSpec("warm", rc, sink.Addr, 0.2)
	warm.Epoch = 0.1
	if _, err := e.daemon.runJob(warm, 10*time.Millisecond, nil); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// setupFiles is setupSocket plus the dataset: the benchmark parses the
// same spec with the same seed the daemon will, to know what must
// arrive.
func setupFiles(rc *runCtx) (*env, error) {
	e, err := setupSocket(rc)
	if err != nil {
		return nil, err
	}
	n := int(filesCount*rc.scale + 0.5)
	if n < 200 {
		n = 200
	}
	e.spec = fmt.Sprintf(filesSpecPattern, n)
	if e.files, err = dataset.ParseSpec(e.spec, rc.seed); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// bulkSpec is the bulk-loopback job: an unbounded bulk stream for
// budget seconds, cs-tuner over nc in [1,P] with np pinned to 1, so
// that no epoch opens more than P data connections.
func bulkSpec(id string, rc *runCtx, addr string, budget float64) service.JobSpec {
	return service.JobSpec{ID: id, Addr: addr, Tuner: "cs-tuner", Seed: rc.seed,
		Epoch: socketEpoch, Budget: budget, NP: 1, MaxNC: rc.p, MaxNP: 1}
}

// filesSpec is the files-loopback job: the dataset to completion under
// a 3-D cs-tuner over nc in [1,P], np = 1, pp in [1,32].
func filesSpec(id string, rc *runCtx, addr, spec string) service.JobSpec {
	return service.JobSpec{ID: id, Addr: addr, Tuner: "cs-tuner", Seed: rc.seed,
		Epoch: socketEpoch, Dataset: spec, Two: true, MaxNC: rc.p, MaxNP: 1}
}

// bulkBudget is the bulk job's length in seconds: the run's seconds at
// full scale, and never so short that no epoch is left once the first
// and the last are dropped.
func bulkBudget(scale float64) float64 {
	if b := baseSeconds * scale; b > 1.25 {
		return b
	}
	return 1.25
}

// socketPass runs one socket job through d and reads the gridftpd
// child's counters on both sides of it.
func socketPass(e *env, d *daemon, spec service.JobSpec, tr *tracer) (out loadOut, child sinkStats, err error) {
	before, err := e.sink.stats()
	if err != nil {
		return out, child, err
	}
	out, err = singlePass(d, spec, tr)
	if err != nil {
		return out, child, err
	}
	after, err := e.sink.stats()
	if err != nil {
		return out, child, err
	}
	child = sinkStats{Bytes: after.Bytes - before.Bytes, CPU: after.CPU - before.CPU, RSSMiB: after.RSSMiB}
	return out, child, nil
}

// epochOverheads returns, for session id, the period between
// consecutive epoch ends minus the nominal epoch, in milliseconds, with
// the first and the last epoch dropped: the first pays for the cold
// stripe, the last is cut short by the budget or the end of the data.
func epochOverheads(d *daemon, id string, epoch float64) []float64 {
	ends := d.epochEnds(id)
	var out []float64
	for i := 2; i < len(ends)-1; i++ {
		out = append(out, (ends[i]-ends[i-1]-epoch)*1e3)
	}
	return out
}

// reportSocket reports what only the socket workloads have: epoch
// overhead, the server's share of the CPU and, with files, the file
// rate.
func reportSocket(res *result, d *daemon, id string, out loadOut, child sinkStats, files int) {
	over := epochOverheads(d, id, socketEpoch)
	res.report("epoch_overhead_ms_p50", "ms", median(over), len(over))
	if v, ok := percentile(over, 90); ok {
		res.report("epoch_overhead_ms_p90", "ms", v, len(over))
	}
	gib := out.Bytes / (1 << 30)
	res.report("gridftpd.cpu_s_per_GiB", "s/GiB", child.CPU/gib, 0)
	res.report("gridftpd.rss_MiB", "MiB", child.RSSMiB, 0)
	res.info("client_cpu_s_per_GiB", "s/GiB", out.CPU/gib, 0)
	if files > 0 {
		res.report("files_per_s", "1/s", float64(files)/out.Wall, files)
	}
}

// checkBulk applies bulk-loopback's output check: the bytes the job was
// credited are the bytes the server counted.
func checkBulk(res *result, out loadOut, child sinkStats) {
	if got, want := int64(out.Bytes), child.Bytes; got != want {
		res.fail("job was credited %d bytes, gridftpd counted %d", got, want)
	}
}

// runBulk is the bulk-loopback workload.
func runBulk(rc *runCtx, e *env) error {
	budget := bulkBudget(rc.scale)
	rc.res.note("one socket job, bulk stream, %.2f s epochs, budget %.2f s, cs-tuner over nc in [1,%d], np=1, unshaped", socketEpoch, budget, rc.p)
	if rc.trace {
		return traceSocket(rc, e, func(id string, share float64) service.JobSpec {
			return bulkSpec(id, rc, e.sink.Addr, budget*share)
		}, nil)
	}
	out, child, err := socketPass(e, e.daemon, bulkSpec("bulk", rc, e.sink.Addr, budget), nil)
	if err != nil {
		return err
	}
	checkSingle(rc.res, e.daemon, out)
	checkBulk(rc.res, out, child)
	out.e2e(rc.res, child.CPU)
	reportSocket(rc.res, e.daemon, "bulk", out, child, 0)
	return nil
}

// checkFiles applies files-loopback's output checks and recounts the
// operations as files: every byte and every file of the dataset
// arrived, per the job, per its checkpointed epochs and per the server.
func checkFiles(res *result, d *daemon, id string, ds dataset.Dataset, out loadOut, child sinkStats) {
	want := ds.TotalBytes()
	if got := int64(out.Bytes); got != want {
		res.fail("job was credited %d bytes, the dataset holds %d", got, want)
	}
	if child.Bytes != want {
		res.fail("gridftpd counted %d bytes, the dataset holds %d", child.Bytes, want)
	}
	files := 0
	if ck, err := d.checkpoint(id); err != nil {
		res.fail("final checkpoint: %v", err)
	} else {
		for _, rec := range ck.Trace {
			files += rec.Report.Files
		}
	}
	if files != ds.Count() {
		res.fail("epochs completed %d files, the dataset holds %d", files, ds.Count())
	}
	res.Attempted, res.Failed = ds.Count(), ds.Count()-files
	if res.Failed < 0 {
		res.Failed = 0
	}
}

// runFiles is the files-loopback workload.
func runFiles(rc *runCtx, e *env) error {
	rc.res.note("one socket dataset job, %s (seed %d: %d files, %d bytes), %.2f s epochs, 3-D cs-tuner over nc in [1,%d], np=1, pp in [1,32], to completion",
		e.spec, rc.seed, e.files.Count(), e.files.TotalBytes(), socketEpoch, rc.p)
	if rc.trace {
		return traceSocket(rc, e, func(id string, share float64) service.JobSpec {
			n := int(float64(e.files.Count()) * share)
			return filesSpec(id, rc, e.sink.Addr, fmt.Sprintf(filesSpecPattern, n))
		}, func(sp service.JobSpec) (dataset.Dataset, error) { return dataset.ParseSpec(sp.Dataset, sp.Seed) })
	}
	out, child, err := socketPass(e, e.daemon, filesSpec("files", rc, e.sink.Addr, e.spec), nil)
	if err != nil {
		return err
	}
	checkSingle(rc.res, e.daemon, out)
	checkFiles(rc.res, e.daemon, "files", e.files, out, child)
	out.e2e(rc.res, child.CPU)
	reportSocket(rc.res, e.daemon, "files", out, child, e.files.Count())
	return nil
}
