package obs

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Limits NewHTTPServer puts on every connection, so a client that
// connects and then stalls — or never stops sending headers — cannot
// hold a goroutine and a descriptor of a long-lived daemon forever.
// There is no write timeout: /debug/pprof/profile legitimately takes
// 30 s to answer.
const (
	httpReadHeaderTimeout = 5 * time.Second
	httpReadTimeout       = 30 * time.Second
	httpIdleTimeout       = 2 * time.Minute
	httpMaxHeaderBytes    = 64 << 10
	// httpDrainTimeout bounds how long Endpoint.Close waits for
	// requests in flight; dstuned gives its control server the same.
	httpDrainTimeout = 5 * time.Second
)

// NewHTTPServer returns the http.Server every listener in this
// repository serves h through: the observation endpoint (Serve) and
// dstuned's control API.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: httpReadHeaderTimeout,
		ReadTimeout:       httpReadTimeout,
		IdleTimeout:       httpIdleTimeout,
		MaxHeaderBytes:    httpMaxHeaderBytes,
	}
}

// Handler returns the introspection mux:
//
//	/metrics        Prometheus text exposition of the registry
//	/status         JSON snapshot of every session's live state
//	/debug/vars     expvar: the standard library's cmdline and memstats
//	/debug/pprof/*  net/http/pprof profiles
//
// The root path serves a plain-text index of the above. Handler is
// valid on a nil receiver (the endpoints serve empty documents).
func (o *Observer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = o.Registry().WritePrometheus(w)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(o.Status())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "dstune observation plane\n\n/metrics\n/status\n/debug/vars\n/debug/pprof/\n")
	})
	return mux
}

// Endpoint is a live introspection server started by Serve.
type Endpoint struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the endpoint's bound address (useful with ":0").
func (e *Endpoint) Addr() string { return e.ln.Addr().String() }

// Close stops accepting connections, lets requests in flight finish
// for up to httpDrainTimeout — a scrape running when the process exits
// is answered whole — and then cuts whatever is left.
func (e *Endpoint) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), httpDrainTimeout)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err != nil {
		return errors.Join(err, e.srv.Close())
	}
	return nil
}

// Serve binds addr (host:port; ":0" picks a free port) and serves
// Handler until Close. It returns immediately; the accept loop runs on
// a background goroutine.
func (o *Observer) Serve(addr string) (*Endpoint, error) {
	if o == nil {
		return nil, fmt.Errorf("obs: Serve on nil Observer")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := NewHTTPServer(o.Handler())
	go func() { _ = srv.Serve(ln) }()
	return &Endpoint{ln: ln, srv: srv}, nil
}
