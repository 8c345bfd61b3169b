package gridftp

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"dstune/internal/dataset"
	"dstune/internal/xfer"
)

// scriptedPeer is a fake server that answers every control verb the
// way a healthy one would — and reports no progress, so a transfer
// against it never finishes — until the test arms an action at one
// verb. An action returns the reply line to send instead; "" hangs
// up, "stall" never answers. "DIAL" is not a verb: its action runs in
// the client's dialer (dial below) and its reply selects how the dial
// fails.
type scriptedPeer struct {
	ln       net.Listener
	mu       sync.Mutex
	acts     map[string]func() string
	data     atomic.Int64 // live data connections
	opened   atomic.Int64 // data connections ever opened
	handlers atomic.Int64 // live connection goroutines (the peer's, not the client's)
}

func newScriptedPeer(t *testing.T) *scriptedPeer {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	p := &scriptedPeer{ln: ln, acts: map[string]func() string{}}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.handlers.Add(1)
			go func() {
				defer p.handlers.Add(-1)
				p.serve(conn)
			}()
		}
	}()
	return p
}

// arm installs (or with nil removes) the action at verb.
func (p *scriptedPeer) arm(verb string, act func() string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if act == nil {
		delete(p.acts, verb)
		return
	}
	p.acts[verb] = act
}

// at runs verb's armed action, if any.
func (p *scriptedPeer) at(verb string) (reply string, armed bool) {
	p.mu.Lock()
	act := p.acts[verb]
	p.mu.Unlock()
	if act == nil {
		return "", false
	}
	return act(), true
}

func (p *scriptedPeer) serve(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	for {
		line, err := readLine(br)
		f := strings.Fields(line)
		if err != nil || len(f) == 0 {
			return
		}
		reply := "OK"
		switch f[0] {
		case "START":
			reply = "OK 0"
		case "DATAF":
			p.data.Add(1)
			p.opened.Add(1)
			io.Copy(io.Discard, br)
			p.data.Add(-1)
			return
		case "MANIFEST":
			for n, _ := strconv.Atoi(f[2]); n > 0; n-- {
				readLine(br)
			}
		case "SETTLE":
			reply = "SETTLED 0 0 0"
		case "RESYNC":
			reply = "END"
		case "OPEN":
			reply = "ACK " + f[2]
		}
		if scripted, armed := p.at(f[0]); armed {
			reply = scripted
		}
		switch reply {
		case "":
			return
		case "stall":
			io.Copy(io.Discard, br)
			return
		}
		fmt.Fprintf(conn, "%s\n", reply)
	}
}

// dial is the client's DialFunc: an armed "DIAL" action fails the dial
// — refused when it replies "", timed out after the full timeout when
// it replies "stall" (both transient), fatally otherwise.
func (p *scriptedPeer) dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	reply, armed := p.at("DIAL")
	switch {
	case !armed:
		return net.DialTimeout(network, addr, timeout)
	case reply == "":
		return nil, fmt.Errorf("scripted refusal: %w", syscall.ECONNREFUSED)
	case reply == "stall":
		time.Sleep(timeout)
		return nil, fmt.Errorf("scripted stall: %w", os.ErrDeadlineExceeded)
	default:
		return nil, errors.New(reply)
	}
}

// clientGoroutines is the process's goroutine count less the peer's
// own connection handlers.
func (p *scriptedPeer) clientGoroutines() int {
	return runtime.NumGoroutine() - int(p.handlers.Load())
}

// TestEveryExitFromRun walks every way an epoch can end before its
// pump — each setup step failing transiently, fatally, or being
// interrupted by a cancelled context or by Stop, for a bulk transfer
// (the one-file manifest NewClient builds from Bytes) and for a resumed
// multi-file dataset that asks for a sink (framed) — and pins what all
// of them owe the caller: the error class, pacing
// for transient failures only, the warm pool kept (or closed, after
// Stop), the byte budget untouched, and no goroutine left behind. The
// one step after the pump, SETTLE, owes the same less the budget: the
// epoch ran, so failing to learn receiver truth costs it neither its
// report (which then carries the sender's count) nor any waiting.
func TestEveryExitFromRun(t *testing.T) {
	type step struct {
		name string
		verb string // where the action fires
		// after, when set, is a verb that must come first: the action is
		// armed only once the peer has answered it with afterReply.
		after, afterReply string
		framed            bool // file plane only
		cold              bool // fires in the session's first epoch, before any stripe exists
		// proceeds: a transient or fatal failure here degrades the
		// epoch instead of ending it (only an interrupt is an exit).
		proceeds bool
		// pumped: the step comes after the pump, so every mode returns
		// the epoch's report at once — with the context's error when
		// cancelled, with none otherwise (Stop shows in the next Run).
		pumped  bool
		wording string // what the transient and fatal errors say
	}
	steps := []step{
		{name: "START", verb: "START", cold: true, wording: "gridftp: start:"},
		{name: "START-warm", verb: "START", wording: "gridftp: start:"},
		{name: "MANIFEST", verb: "MANIFEST", framed: true, wording: "gridftp: manifest:"},
		{name: "RESYNC", verb: "RESYNC", framed: true, proceeds: true},
		// The first data dial follows a START that went through.
		{name: "data-dial", verb: "DIAL", after: "START", afterReply: "OK 0", cold: true,
			wording: "only 0/1 data connections (min 1)"},
		// The opener's control connection is dialed only when RESYNC
		// lost the one START used.
		{name: "opener-control", verb: "DIAL", after: "RESYNC", afterReply: "", framed: true,
			wording: "gridftp: control:"},
		{name: "SETTLE", verb: "SETTLE", proceeds: true, pumped: true},
	}
	const (
		transient = "transient"
		fatal     = "fatal"
		cancelled = "cancel"
		stopped   = "stop"
	)
	for _, framed := range []bool{false, true} {
		for _, st := range steps {
			if st.framed && !framed {
				continue
			}
			for _, mode := range []string{transient, fatal, cancelled, stopped} {
				plane := map[bool]string{false: "bulk", true: "framed"}[framed]
				t.Run(plane+"/"+st.name+"/"+mode, func(t *testing.T) {
					p := newScriptedPeer(t)
					cfg := ClientConfig{
						Addr:        p.ln.Addr().String(),
						Bytes:       1 << 20,
						Dialer:      p.dial,
						DialTimeout: 100 * time.Millisecond,
						Retry:       RetryConfig{Attempts: 2, Backoff: time.Millisecond},
					}
					if framed {
						// A resumed session (AckedBytes) resyncs in its first
						// epoch; and since the peer's SETTLE stays below what
						// was acked, the first settle concludes the server
						// lost the file table, so the next epoch re-sends
						// MANIFEST (with its SINK flag) and RESYNC too — on a
						// warm pool.
						cfg.Bytes, cfg.Dataset = 0, dataset.Uniform(4, 64<<10)
						cfg.Token, cfg.AckedBytes, cfg.RequestSink = "exit-tok", 1, true
					}
					if st.pumped && !framed {
						// More than an epoch can move, so the budget the
						// failed settle leaves spent does not end the
						// transfer before the next epoch.
						cfg.Bytes = 1 << 50
					}
					c, err := NewClient(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer c.Stop()
					params := xfer.Params{NC: 1, NP: 1, PP: 2}
					pooled := 0
					if !st.cold {
						if _, err := c.Run(context.Background(), params, 0.02); err != nil {
							t.Fatalf("warm-up epoch: %v", err)
						}
						pooled = 1
					}

					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					act := map[string]func() string{
						transient: func() string { return "" },
						fatal:     func() string { return "ERR scripted refusal" },
						cancelled: func() string { cancel(); return "stall" },
						stopped:   func() string { c.Stop(); return "stall" },
					}[mode]
					if st.after != "" {
						p.arm(st.after, func() string { p.arm(st.verb, act); return st.afterReply })
					} else {
						p.arm(st.verb, act)
					}

					// A paced epoch is short enough to wait out; an exit that
					// must not be paced gets one long enough that pacing it
					// would be unmistakable.
					epoch := 30.0
					paced := mode == transient && !st.proceeds
					switch {
					case paced:
						epoch = 0.3
					case st.pumped, st.proceeds && (mode == transient || mode == fatal):
						epoch = 0.02
					}
					remaining := c.Remaining()
					goroutines := p.clientGoroutines()
					began := time.Now()
					r, err := c.Run(ctx, params, epoch)
					took := time.Since(began)

					switch {
					case mode == cancelled:
						if err != context.Canceled {
							t.Fatalf("err = %v, want the context's error", err)
						}
					case st.pumped:
						if err != nil {
							t.Fatalf("err = %v, want the epoch's report and no error", err)
						}
					case mode == stopped:
						if !errors.Is(err, xfer.ErrStopped) {
							t.Fatalf("err = %v, want xfer.ErrStopped", err)
						}
					case st.proceeds:
						if err != nil {
							t.Fatalf("err = %v, want a degraded epoch, not an exit", err)
						}
					case err == nil || xfer.IsTransient(err) != (mode == transient) || !strings.Contains(err.Error(), st.wording):
						t.Fatalf("err = %v, want a %s error saying %q", err, mode, st.wording)
					}
					if paced && took < 300*time.Millisecond {
						t.Fatalf("transient failure returned after %v, want it paced to the 0.3 s epoch", took)
					}
					if !paced && (!st.proceeds || st.pumped) && took > 2*time.Second {
						t.Fatalf("Run took %v to return, want it at once", took)
					}
					if st.pumped {
						if r.Bytes <= 0 {
							t.Fatalf("report carries %v bytes, want what the stripes wrote", r.Bytes)
						}
					} else if got := c.Remaining(); got != remaining {
						t.Fatalf("Remaining moved from %v to %v", remaining, got)
					}
					deadline := time.Now().Add(2 * time.Second)
					for p.clientGoroutines() > goroutines {
						if time.Now().After(deadline) {
							t.Fatalf("%d goroutines before Run, %d after it returned", goroutines, p.clientGoroutines())
						}
						time.Sleep(5 * time.Millisecond)
					}

					p.arm(st.after, nil)
					p.arm(st.verb, nil)
					r, err = c.Run(context.Background(), params, 0.02)
					if mode == stopped {
						if !errors.Is(err, xfer.ErrStopped) {
							t.Fatalf("Run after Stop: %v, want xfer.ErrStopped", err)
						}
						for p.data.Load() != 0 {
							if time.Now().After(deadline) {
								t.Fatalf("%d data connections still open after Stop", p.data.Load())
							}
							time.Sleep(5 * time.Millisecond)
						}
						return
					}
					if err != nil {
						t.Fatalf("next epoch: %v", err)
					}
					if r.ReusedStreams != pooled {
						t.Fatalf("next epoch reused %d stripes, want the %d that were pooled", r.ReusedStreams, pooled)
					}
				})
			}
		}
	}
}

// TestParentBulkCheckpointIsRefused: a checkpoint of a transfer an
// older client streamed without a manifest names a token whose counter
// holds the acknowledged bytes while its file table, registered only
// now, holds none. Resumed from offset zero, the transfer would send the
// whole volume again and the server would count it twice, so the first
// epoch fails with a named, fatal error before any data connection is
// opened — and every later one too. A resumed session whose RESYNC
// fails cannot tell, so it sends nothing either.
func TestParentBulkCheckpointIsRefused(t *testing.T) {
	const volume, acked = 8 << 20, 3 << 20
	for _, row := range []struct {
		name   string
		resync func() string // the peer's answer to RESYNC; nil reads no progress
		check  func(error) bool
	}{
		{"older-server", nil, func(err error) bool { return errors.Is(err, errNotResumable) && !xfer.IsTransient(err) }},
		{"resync-lost", func() string { return "" }, xfer.IsTransient},
	} {
		t.Run(row.name, func(t *testing.T) {
			p := newScriptedPeer(t)
			// The older server: START reads the bulk bytes.
			p.arm("START", func() string { return fmt.Sprintf("OK %d", acked+4096) })
			p.arm("RESYNC", row.resync)
			c, err := NewClient(ClientConfig{
				Addr:        p.ln.Addr().String(),
				Bytes:       volume,
				Token:       "parent-tok",
				AckedBytes:  acked,
				DialTimeout: 100 * time.Millisecond,
				Retry:       RetryConfig{Attempts: 2, Backoff: time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			for i := 0; i < 2; i++ {
				if _, err := c.Run(context.Background(), xfer.Params{NC: 2, NP: 1}, 0.05); !row.check(err) {
					t.Fatalf("epoch %d: err = %v", i, err)
				}
			}
			if n := p.opened.Load(); n != 0 {
				t.Fatalf("%d data connections opened, want none", n)
			}
			if got := c.Remaining(); got != volume-acked {
				t.Fatalf("Remaining = %v, want the checkpoint's %d untouched", got, volume-acked)
			}
		})
	}
}
