package gridftp

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"dstune/internal/dataset"
	"dstune/internal/directsearch"
	"dstune/internal/tuner"
	"dstune/internal/xfer"
)

// startServer launches a loopback server and registers its shutdown.
func startServer(t *testing.T) *Server {
	t.Helper()
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func newTestClient(t *testing.T, s *Server, bytes float64, sh *Shaper) *Client {
	t.Helper()
	c, err := NewClient(ClientConfig{Addr: s.Addr(), Bytes: bytes, Shaper: sh})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClientConfigValidation(t *testing.T) {
	if _, err := NewClient(ClientConfig{Bytes: 1}); err == nil {
		t.Fatal("missing address accepted")
	}
	if _, err := NewClient(ClientConfig{Addr: "x", Bytes: 0}); err == nil {
		t.Fatal("zero size accepted")
	}
	c, err := NewClient(ClientConfig{Addr: "x", Bytes: xfer.Unbounded})
	if err != nil {
		t.Fatal(err)
	}
	if c.Remaining() <= 0 {
		t.Fatal("unbounded client has no remaining budget")
	}
}

// TestClientRefusesBadShaper: a shaper's Rate and Quad must each be a
// finite non-negative number, and NewClient's error names the field.
func TestClientRefusesBadShaper(t *testing.T) {
	for _, field := range []string{"Rate", "Quad"} {
		for _, v := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
			sh := &Shaper{Rate: 8e6, Quad: 0.03}
			if field == "Rate" {
				sh.Rate = v
			} else {
				sh.Quad = v
			}
			_, err := NewClient(ClientConfig{Addr: "x", Bytes: 1, Shaper: sh})
			if err == nil || !strings.Contains(err.Error(), "shaper "+field) {
				t.Errorf("%s %v: got %v, want an error naming shaper %s", field, v, err, field)
			}
		}
	}
	for _, sh := range []*Shaper{nil, {}, {Rate: 8e6}, {Rate: 8e6, Quad: 0.03}} {
		if _, err := NewClient(ClientConfig{Addr: "x", Bytes: 1, Shaper: sh}); err != nil {
			t.Errorf("shaper %+v refused: %v", sh, err)
		}
	}
}

func TestTransferMovesBytes(t *testing.T) {
	s := startServer(t)
	c := newTestClient(t, s, xfer.Unbounded, &Shaper{Rate: 4e6})
	r, err := c.Run(context.Background(), xfer.Params{NC: 2, NP: 2}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bytes <= 0 || r.Throughput <= 0 {
		t.Fatalf("no progress: %+v", r)
	}
	if r.DeadTime <= 0 || r.BestCase < r.Throughput {
		t.Fatalf("setup accounting wrong: dead=%v best=%v obs=%v", r.DeadTime, r.BestCase, r.Throughput)
	}
	// Server-side count must eventually match what the client sent.
	deadline := time.Now().Add(2 * time.Second)
	for {
		got, err := c.ServerReceived()
		if err != nil {
			t.Fatal(err)
		}
		if float64(got) == r.Bytes {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server received %d, client sent %v", got, r.Bytes)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestBoundedTransferCompletes(t *testing.T) {
	s := startServer(t)
	const size = 1 << 20
	c := newTestClient(t, s, size, nil)
	var total float64
	for i := 0; i < 20; i++ {
		r, err := c.Run(context.Background(), xfer.Params{NC: 2, NP: 1}, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		total += r.Bytes
		if r.Done {
			if c.Remaining() != 0 {
				t.Fatalf("done but remaining %v", c.Remaining())
			}
			if total != size {
				t.Fatalf("moved %v, want %d", total, size)
			}
			return
		}
	}
	t.Fatal("transfer never completed")
}

func TestRunErrors(t *testing.T) {
	s := startServer(t)
	c := newTestClient(t, s, xfer.Unbounded, nil)
	if _, err := c.Run(context.Background(), xfer.Params{NC: 1, NP: 1}, 0); err != xfer.ErrBadEpoch {
		t.Fatalf("zero epoch: %v", err)
	}
	if _, err := c.Run(context.Background(), xfer.Params{}, 0.1); err != xfer.ErrBadParams {
		t.Fatalf("bad params: %v", err)
	}
	c.Stop()
	if _, err := c.Run(context.Background(), xfer.Params{NC: 1, NP: 1}, 0.1); err != xfer.ErrStopped {
		t.Fatalf("after stop: %v", err)
	}
}

func TestRunAgainstDeadServer(t *testing.T) {
	s := startServer(t)
	addr := s.Addr()
	s.Close()
	c, err := NewClient(ClientConfig{Addr: addr, Bytes: 1e6, DialTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background(), xfer.Params{NC: 1, NP: 1}, 0.1); err == nil {
		t.Fatal("run against closed server succeeded")
	}
}

func TestShapedRateRespected(t *testing.T) {
	s := startServer(t)
	c := newTestClient(t, s, xfer.Unbounded, &Shaper{Rate: 2e6})
	r, err := c.Run(context.Background(), xfer.Params{NC: 3, NP: 1}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// 3 connections at 2 MB/s: ~3 MB in 0.5 s. Allow generous slack
	// for scheduling noise and the initial burst.
	if r.BestCase > 9e6 {
		t.Fatalf("shaped best-case %v far above 6e6", r.BestCase)
	}
	if r.Bytes < 1e6 {
		t.Fatalf("shaped transfer too slow: %v bytes", r.Bytes)
	}
}

func TestMoreConnectionsMoreThroughputWhenShaped(t *testing.T) {
	s := startServer(t)
	measure := func(nc int) float64 {
		c := newTestClient(t, s, xfer.Unbounded, &Shaper{Rate: 2e6})
		r, err := c.Run(context.Background(), xfer.Params{NC: nc, NP: 1}, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		return r.BestCase
	}
	one, four := measure(1), measure(4)
	if four < 2*one {
		t.Fatalf("4 conns (%v) not well above 1 conn (%v)", four, one)
	}
}

func TestShaperOptimum(t *testing.T) {
	sh := &Shaper{Rate: 1e6, Quad: 1.0 / 36}
	if got := sh.Optimum(); got != 6 {
		t.Fatalf("Optimum = %d, want 6", got)
	}
	if (&Shaper{}).Optimum() != 0 {
		t.Fatal("unshaped Optimum should be 0")
	}
	if (*Shaper)(nil).Optimum() != 0 {
		t.Fatal("nil Optimum should be 0")
	}
	if !math.IsInf((*Shaper)(nil).perConnRate(4), 1) {
		t.Fatal("nil shaper should be unlimited")
	}
	// Aggregate peaks at the optimum.
	agg := func(n int) float64 { return float64(n) * sh.perConnRate(n) }
	if !(agg(6) > agg(1) && agg(6) > agg(30)) {
		t.Fatalf("aggregate not peaked at 6: %v %v %v", agg(1), agg(6), agg(30))
	}
}

// TestQuadShaperInteriorPeakOnWire: the Shaper's interior optimum shows
// on the wire, for a bulk transfer's one file and for a dataset whose
// files are larger than a lease, so a pump that wrote a file in bursts
// past the pacing quantum would flatten it.
func TestQuadShaperInteriorPeakOnWire(t *testing.T) {
	s := startServer(t)
	sh := &Shaper{Rate: 4e6, Quad: 1.0 / 16} // optimum at 4 conns
	for _, row := range []struct {
		name string
		cfg  ClientConfig
	}{
		{"bulk", ClientConfig{Bytes: xfer.Unbounded}},
		{"dataset", ClientConfig{Dataset: dataset.Uniform(16, 2<<20)}},
	} {
		t.Run(row.name, func(t *testing.T) {
			measure := func(nc int) float64 {
				cfg := row.cfg
				cfg.Addr, cfg.Shaper = s.Addr(), sh
				c, err := NewClient(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Stop()
				r, err := c.Run(context.Background(), xfer.Params{NC: nc, NP: 1, PP: 4}, 0.4)
				if err != nil {
					t.Fatal(err)
				}
				return r.BestCase
			}
			mid := measure(4)
			lo := measure(1)
			hi := measure(16)
			if !(mid > lo && mid > hi) {
				t.Fatalf("no interior peak: nc=1 %v, nc=4 %v, nc=16 %v", lo, mid, hi)
			}
		})
	}
}

func TestTunerOverRealSockets(t *testing.T) {
	// End-to-end: cs-tuner finds the shaped optimum over loopback.
	s := startServer(t)
	sh := &Shaper{Rate: 4e6, Quad: 1.0 / 16} // optimum at 4
	c := newTestClient(t, s, xfer.Unbounded, sh)
	cfg := tuner.Config{
		// Wall-clock seconds. On a loaded host every epoch pays its
		// control round trips and its settle late, a fixed cost a 0.2 s
		// epoch mistook for a slower parameter vector often enough to
		// walk the search away (2 runs in 30 ended at nc=13 under twelve
		// CPU hogs on one P, none in 24 at 0.4 s); 0.4 s halves its
		// weight and still leaves thirty epochs in the budget.
		Epoch: 0.4,
		// Loopback timing is far noisier than a 30 s WAN epoch; a
		// tight tolerance would keep re-triggering the search.
		Tolerance: 30,
		Box:       directsearch.MustBox([]int{1}, []int{32}),
		Start:     []int{1},
		Map:       tuner.MapNC(1),
		Budget:    12,
		Seed:      3,
		Lambda:    4,
	}
	tr, err := tuner.Run(context.Background(), "cs-tuner", cfg, c)
	if err != nil {
		t.Fatal(err)
	}
	// Judge by where the tuner spent the second half of the run.
	var xs []int
	for _, r := range tr.Results[len(tr.Results)/2:] {
		xs = append(xs, r.X[0])
	}
	sort.Ints(xs)
	med := xs[len(xs)/2]
	if med < 2 || med > 10 {
		t.Fatalf("cs-tuner over sockets spent its time at nc=%d (median), want near 4", med)
	}
}

func TestServerRejectsGarbage(t *testing.T) {
	s := startServer(t)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "BOGUS nonsense\n")
	resp, err := readLine(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("garbage got %q, want ERR", resp)
	}
}

func TestServerRejectsBadStart(t *testing.T) {
	s := startServer(t)
	for _, cmd := range []string{"START", "START tok 4", "DATA"} {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "%s\n", cmd)
		resp, err := readLine(bufio.NewReader(conn))
		conn.Close()
		if err != nil {
			t.Fatalf("%q: %v", cmd, err)
		}
		if !strings.HasPrefix(resp, "ERR") {
			t.Fatalf("%q got %q, want ERR", cmd, resp)
		}
	}
}

func TestControlMultipleCommands(t *testing.T) {
	s := startServer(t)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	fmt.Fprintf(conn, "START tok1\n")
	if resp, _ := readLine(br); resp != "NONE" {
		t.Fatalf("START got %q", resp)
	}
	fmt.Fprintf(conn, "SETTLE tok1 0\n")
	if resp, _ := readLine(br); resp != "SETTLED 0 0" {
		t.Fatalf("SETTLE got %q", resp)
	}
}

func TestStatUnknownTokenIsZero(t *testing.T) {
	s := startServer(t)
	if got := s.Received("never-seen"); got != 0 {
		t.Fatalf("Received(unknown) = %d", got)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	s := startServer(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestNowAndTokens(t *testing.T) {
	s := startServer(t)
	c := newTestClient(t, s, xfer.Unbounded, nil)
	if c.Now() != 0 {
		t.Fatal("Now before first run should be 0")
	}
	if c.Token() == "" {
		t.Fatal("empty token")
	}
	c2 := newTestClient(t, s, xfer.Unbounded, nil)
	if c.Token() == c2.Token() {
		t.Fatal("tokens collide")
	}
	if _, err := c.Run(context.Background(), xfer.Params{NC: 1, NP: 1}, 0.05); err != nil {
		t.Fatal(err)
	}
	if c.Now() <= 0 {
		t.Fatal("Now did not advance")
	}
}

func TestServerDiesMidEpoch(t *testing.T) {
	// Kill the server while the client is pumping: the epoch must end
	// with the bytes moved so far rather than hanging or panicking.
	s := startServer(t)
	c := newTestClient(t, s, xfer.Unbounded, &Shaper{Rate: 1e6})
	done := make(chan xfer.Report, 1)
	go func() {
		r, err := c.Run(context.Background(), xfer.Params{NC: 2, NP: 1}, 2)
		if err != nil {
			t.Error(err)
		}
		done <- r
	}()
	time.Sleep(300 * time.Millisecond)
	s.Close()
	select {
	case r := <-done:
		if r.Bytes <= 0 {
			t.Fatalf("no bytes before the crash: %+v", r)
		}
		// The write failures must end the epoch early.
		if r.End-r.Start > 1.9 {
			t.Fatalf("epoch ran to full length (%v s) despite dead server", r.End-r.Start)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client hung after server death")
	}
}

func TestBudgetNotLostOnWriteFailure(t *testing.T) {
	// A bounded transfer that hits a dead server keeps its unsent
	// budget for the next attempt.
	s := startServer(t)
	const size = 10 << 20
	c := newTestClient(t, s, size, &Shaper{Rate: 1e6})
	r, err := c.Run(context.Background(), xfer.Params{NC: 1, NP: 1}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Remaining() + r.Bytes; got != size {
		t.Fatalf("budget leak: remaining %v + moved %v != %v", c.Remaining(), r.Bytes, got)
	}
}
