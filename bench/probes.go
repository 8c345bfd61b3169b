package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dstune/internal/dataset"
	"dstune/internal/endpoint"
	"dstune/internal/experiment"
	"dstune/internal/gridftp"
	"dstune/internal/history"
	"dstune/internal/load"
	"dstune/internal/netem"
	"dstune/internal/obs"
	"dstune/internal/service"
	"dstune/internal/sim"
	"dstune/internal/tcpmodel"
	"dstune/internal/xfer"
)

// Layer probes time one public function of one layer in a loop, long
// enough to mean something (a quarter of a second each at full scale,
// not one cold iteration). They do not depend on the workload: they run
// in every traced run so that every layer has a number beside every
// workload's trace.

// probeFor is how long each probe loops.
func probeFor(rc *runCtx) time.Duration {
	d := time.Duration(rc.scale * float64(250*time.Millisecond))
	if d < 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	if d > 250*time.Millisecond {
		d = 250 * time.Millisecond
	}
	return d
}

// probeSize is the size of a probe's fixture: n, or a twentieth of it
// under -quick.
func probeSize(rc *runCtx, n int) int {
	if rc.quick {
		return n / 20
	}
	return n
}

// loopFor calls fn in batches until d has passed and returns the mean
// time per call in nanoseconds and the number of calls.
func loopFor(d time.Duration, batch int, fn func()) (nsPerOp float64, n int) {
	t0 := time.Now()
	for time.Since(t0) < d {
		for i := 0; i < batch; i++ {
			fn()
		}
		n += batch
	}
	return float64(time.Since(t0)) / float64(n), n
}

// timeEach calls fn until d has passed and returns each call's duration
// in microseconds.
func timeEach(d time.Duration, fn func() error) ([]float64, error) {
	var out []float64
	t0 := time.Now()
	for time.Since(t0) < d {
		s := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(s))/1e3)
	}
	return out, nil
}

// runProbes runs every workload-independent probe.
func runProbes(rc *runCtx) error {
	res, d := rc.res, probeFor(rc)

	// netem: one path step at 16 and at 512 streams.
	for _, streams := range []int{16, 512} {
		p := netem.New(netem.Config{Capacity: 5e9, BaseRTT: 0.012, RandomLoss: 5e-6, MaxCwnd: 4 << 20}, sim.NewRNG(rc.seed))
		p.NewFlow(streams, tcpmodel.NewHTCP())
		ns, n := loopFor(d, 16, func() { p.Step(0.1) })
		res.set(fmt.Sprintf("netem.step_ns_%d", streams), ns, n)
	}

	// endpoint: one scheduling round over 64 processes, with its
	// allocations.
	h := endpoint.New(experiment.SourceANL())
	h.SetComputeJobs(16)
	demands := make([]endpoint.Demand, 64)
	for i := range demands {
		demands[i] = endpoint.Demand{Threads: 8, Rate: 1e9}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ns, n := loopFor(d, 16, func() { h.Allocate(demands) })
	runtime.ReadMemStats(&m1)
	res.set("endpoint.allocate_ns_64", ns, n)
	res.set("endpoint.allocate_allocs_64", float64(m1.Mallocs-m0.Mallocs)/float64(n), n)

	// xfer: whole 30 s epochs of one Sim at nc=8 np=8 under load.
	fabric, _, err := experiment.ANLtoUChicago().NewFabric(rc.seed)
	if err != nil {
		return err
	}
	fabric.SetLoad(load.Constant(load.Load{Tfr: 16, Cmp: 16}), nil)
	tr, err := fabric.NewTransfer(xfer.TransferConfig{Name: "probe", Bytes: xfer.Unbounded})
	if err != nil {
		return err
	}
	ns, n = loopFor(d, 1, func() {
		if _, rerr := tr.Run(context.Background(), xfer.Params{NC: 8, NP: 8}, 30); rerr != nil {
			err = rerr
		}
	})
	if err != nil {
		return err
	}
	res.set("xfer.fabric_step_us", ns/1e3/300, n*300) // 30 s / 0.1 s steps per epoch

	// obs: one EpochEnd on a registered session.
	sess := obs.NewObserver(obs.ObserverConfig{}).Session("probe")
	x := []int{4, 8}
	st := obs.EpochStats{Throughput: 1e9, BestCase: 1.1e9, Bytes: 3e10, DeadTime: 3}
	epoch := 0
	ns, n = loopFor(d, 64, func() { epoch++; sess.EpochEnd(float64(epoch), epoch, x, st, false, 2) })
	res.set("obs.epoch_end_ns", ns, n)

	// service: one journal append and remove, as Submit and finalize
	// pair them.
	journal, err := service.OpenJournal(filepath.Join(rc.dir, "probe-journal"))
	if err != nil {
		return err
	}
	entry := service.JournalEntry{ID: "probe", Tenant: "default", Spec: churnSpec("probe", rc.seed, 0)}
	each, err := timeEach(d, func() error {
		if err := journal.Append(entry); err != nil {
			return err
		}
		return journal.Remove(entry.ID)
	})
	if err != nil {
		return err
	}
	res.set("service.journal_append_us", median(each), len(each))

	// history: a file store preloaded with 10k records.
	if err := historyProbe(rc, d); err != nil {
		return err
	}

	// dataset: parsing (that is, generating) a 100k-file log-normal spec.
	each, err = timeEach(d, func() error {
		_, err := dataset.ParseSpec(fmt.Sprintf(filesSpecPattern, probeSize(rc, 100000)), rc.seed)
		return err
	})
	if err != nil {
		return err
	}
	res.set("dataset.parse_ms", median(each)/1e3, len(each))
	return nil
}

// historyProbe times Store.Add (durable append) and Store.Lookup on a
// file store that already holds 10k records.
func historyProbe(rc *runCtx, d time.Duration) error {
	preload := probeSize(rc, 10000)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; i < preload; i++ {
		rec := history.Record{
			Key:        history.Key{Endpoint: fmt.Sprintf("endpoint-%d", i%64), SizeClass: i % 13, LoadClass: i % 7},
			X:          []int{2 + i%30, 1 + i%8},
			Throughput: float64(1e8 + i),
			Tuner:      "cs-tuner", Epochs: 60,
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	path := filepath.Join(rc.dir, "probe-history.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	store, err := history.Open(path)
	if err != nil {
		return err
	}
	defer store.Close()
	if store.Len() != preload {
		return fmt.Errorf("history probe: store loaded %d records, want %d", store.Len(), preload)
	}
	// Lookup first: Add grows the store, and a lookup scans all of it.
	hit, miss := history.Key{Endpoint: "endpoint-3", SizeClass: 6, LoadClass: 4}, history.Key{Endpoint: "endpoint-5", SizeClass: 40, LoadClass: 11}
	ns, n := loopFor(d, 8, func() {
		store.Lookup(hit)
		store.Lookup(miss)
	})
	rc.res.set("history.lookup_us", ns/2/1e3, 2*n)
	i := 0
	each, err := timeEach(d, func() error {
		i++
		return store.Add(history.Record{Key: history.Key{Endpoint: "endpoint-new", SizeClass: i % 13, LoadClass: i % 7},
			X: []int{4, 8}, Throughput: 1e9, Tuner: "cs-tuner", Epochs: 60})
	})
	if err != nil {
		return err
	}
	rc.res.set("history.add_us", median(each), len(each))
	return nil
}

// socketProbes times the control round-trip and the cold stripe set-up
// against the gridftpd child at addr.
func socketProbes(rc *runCtx, addr string) error {
	ctx := context.Background()
	// STAT on a warm, idle control connection.
	warm, err := gridftp.NewClient(gridftp.ClientConfig{Addr: addr, Bytes: xfer.Unbounded, Seed: rc.seed})
	if err != nil {
		return err
	}
	defer warm.Stop()
	if _, err := warm.Run(ctx, xfer.Params{NC: 1, NP: 1}, 0.05); err != nil {
		return err
	}
	each, err := timeEach(probeFor(rc), func() error {
		_, err := warm.ServerReceived()
		return err
	})
	if err != nil {
		return err
	}
	rc.res.set("gridftp.stat_rtt_us", median(each), len(each))

	// Cold start: every epoch does the START handshake and dials P
	// fresh data connections.
	cold, err := gridftp.NewClient(gridftp.ClientConfig{Addr: addr, Bytes: xfer.Unbounded, Seed: rc.seed, ColdStart: true})
	if err != nil {
		return err
	}
	defer cold.Stop()
	var dead []float64
	for i := 0; i < 5; i++ {
		rep, err := cold.Run(ctx, xfer.Params{NC: rc.p, NP: 1}, 0.05)
		if err != nil {
			return err
		}
		dead = append(dead, rep.DeadTime*1e3)
	}
	rc.res.set("gridftp.cold_setup_ms", median(dead), len(dead))
	return nil
}
