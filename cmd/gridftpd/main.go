// Command gridftpd runs the striped memory-to-memory transfer server:
// the receiving end for cmd/dstune's socket mode and for any
// dstune.TransferClient. Received data is discarded and counted per
// transfer token (the /dev/null end of the paper's setup).
//
// Usage:
//
//	gridftpd [-addr :7632] [-token-ttl 5m] [-sockbuf N] [-file-latency 0] [-sink DIR] [-obs-addr :9632] [-v]
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dstune"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("gridftpd: ")
	addr := flag.String("addr", ":7632", "listen address")
	tokenTTL := flag.Duration("token-ttl", 5*time.Minute, "idle expiry for per-transfer tokens (their file tables); 0 disables")
	sockBuf := flag.Int("sockbuf", 0, "kernel socket buffer bytes for accepted connections; 0 = OS default")
	fileLatency := flag.Duration("file-latency", 0, "artificial per-file OPEN latency for dataset transfers, emulating remote metadata cost (what -pp pipelining hides)")
	sinkDir := flag.String("sink", "", "persist dataset transfers that request a sink under this directory (one subdirectory per token); empty keeps the discard-and-count behavior")
	obsAddr := flag.String("obs-addr", "", "serve /metrics, /status, /debug/vars, and /debug/pprof on this address; empty disables")
	verbose := flag.Bool("v", false, "log connection errors")
	flag.Parse()

	srv, err := dstune.ServeGridFTP(*addr)
	if err != nil {
		log.Fatal(err)
	}
	srv.SetTokenTTL(*tokenTTL)
	srv.SetSockBuf(*sockBuf)
	srv.SetFileLatency(*fileLatency)
	srv.SetSink(*sinkDir)
	if *obsAddr != "" {
		observer := dstune.NewObserver(dstune.ObserverConfig{})
		srv.SetObserver(observer)
		ep, err := observer.Serve(*obsAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer ep.Close()
		log.Printf("observation plane on http://%s (/metrics /status /debug/vars /debug/pprof)", ep.Addr())
	}
	if *verbose {
		srv.SetLogger(log.Printf)
	}
	log.Printf("listening on %s", srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down")
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
}
