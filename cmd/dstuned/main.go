// Command dstuned is the tuning service plane: a long-running,
// crash-safe, multi-tenant daemon that runs each tuner session on its
// own goroutine, at its own pace. Jobs arrive over an HTTP/JSON control
// API, are journaled durably before they are acknowledged, checkpoint
// after every control epoch, and are re-adopted mid-trajectory by the
// next incarnation after a crash or restart.
//
// Control API (also serving the observation plane's /metrics, /status,
// /debug/vars, and /debug/pprof):
//
//	POST   /jobs       submit a job (JSON JobSpec) — 201, or 429 with
//	                   Retry-After under backpressure
//	GET    /jobs       list all jobs
//	GET    /jobs/{id}  one job's status
//	DELETE /jobs/{id}  cancel: stop at the next epoch boundary,
//	                   keeping the checkpoint
//
// Usage:
//
//	dstuned -state DIR [-addr 127.0.0.1:9410] [-max-active N]
//	        [-max-queued N] [-tenant-max-active N]
//	        [-tenant-fault-budget N] [-retry-after 1s]
//	        [-history FILE] [-obs-trace FILE]
//
// SIGINT or SIGTERM drains: every running session checkpoints at its
// next epoch boundary and its journal entry is retained, so a restart
// on the same -state directory resumes each job where it left off.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dstune"
	"dstune/internal/obs"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("dstuned: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run is main minus the process scaffolding, so tests can drive a
// whole daemon in a subprocess (see TestMain).
func run(args []string) error {
	fs := flag.NewFlagSet("dstuned", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9410", "control API listen address")
	state := fs.String("state", "", "state directory for the job journal and checkpoints (required)")
	maxActive := fs.Int("max-active", 0, "sessions running at once; 0 = default (1024)")
	maxQueued := fs.Int("max-queued", 0, "jobs waiting for a running slot before 429; 0 = default (4096)")
	tenantMaxActive := fs.Int("tenant-max-active", 0, "per-tenant admitted-job cap; 0 = max-active")
	tenantFaultBudget := fs.Int("tenant-fault-budget", 0, "per-tenant cumulative transient-epoch budget; 0 disables")
	retryAfter := fs.Duration("retry-after", 0, "Retry-After hint on 429 responses; 0 = default (1s)")
	historyPath := fs.String("history", "", "shared history store (JSONL) for warm starts; empty disables")
	obsTrace := fs.String("obs-trace", "", "append job and session lifecycle events to this JSONL file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *state == "" {
		return errors.New("-state is required")
	}

	// The observation plane is always on: the control listener serves
	// /metrics and friends alongside /jobs, and -obs-trace mirrors
	// every event to a durable JSONL file.
	obsCfg := dstune.ObserverConfig{}
	var sink *os.File
	if *obsTrace != "" {
		f, err := os.OpenFile(*obsTrace, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		sink = f
		obsCfg.EventSink = f
	}
	observer := dstune.NewObserver(obsCfg)

	// The shared knowledge plane: sessions warm-start from it and
	// record their best epochs into it. Damage degrades, it never
	// disables: intact records load and the loss is logged.
	var hist *dstune.HistoryStore
	if *historyPath != "" {
		store, herr := dstune.OpenHistory(*historyPath)
		if store == nil {
			return herr
		}
		if herr != nil {
			log.Printf("history: %v (continuing with the %d intact records)", herr, store.Len())
		}
		hist = store
	}

	sv, err := dstune.NewSupervisor(dstune.ServiceConfig{
		Dir: *state,
		Limits: dstune.ServiceLimits{
			MaxActive:         *maxActive,
			MaxQueued:         *maxQueued,
			TenantMaxActive:   *tenantMaxActive,
			TenantFaultBudget: *tenantFaultBudget,
			RetryAfter:        *retryAfter,
		},
		Obs:     observer,
		History: hist,
		Logf:    log.Printf,
	})
	if err != nil {
		return err
	}
	for _, rec := range sv.Adopted() {
		log.Printf("adopted job %s (tenant %s): %d epochs, %.0f bytes, %.1fs transfer clock",
			rec.ID, rec.Tenant, rec.Epochs, rec.Bytes, rec.Clock)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sv.Start(ctx)

	srv := obs.NewHTTPServer(sv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	log.Printf("control API listening on %s (state %s)", ln.Addr(), *state)

	select {
	case <-ctx.Done():
	case err := <-serveErr:
		sv.Wait()
		return err
	}

	// Drain: every running session checkpoints at its next epoch
	// boundary and keeps its journal entry; the next incarnation
	// re-adopts it.
	log.Printf("draining: sessions checkpoint at their next epoch boundary")
	sv.Wait()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if hist != nil {
		if err := hist.Close(); err != nil {
			log.Printf("history: close: %v", err)
		}
	}
	if sink != nil {
		// The recorder stops writing at the sink's first error; say so,
		// or a full disk loses the trace's tail without a word.
		if err := observer.Recorder().Err(); err != nil {
			log.Printf("obs-trace: %v (no later event was written)", err)
		}
		// A trace file is synced; a FIFO or a terminal has nothing to
		// sync (fsync fails EINVAL).
		if fi, err := sink.Stat(); err == nil && fi.Mode().IsRegular() {
			if err := sink.Sync(); err != nil {
				log.Printf("obs-trace: sync: %v", err)
			}
		}
		sink.Close()
	}
	log.Printf("shutdown complete")
	return nil
}
