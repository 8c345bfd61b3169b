package gridftp

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dstune/internal/directsearch"
	"dstune/internal/faultnet"
	"dstune/internal/tuner"
	"dstune/internal/xfer"
)

// seqDialer fails exactly the dial numbers (1-based) in fail; other
// dials pass through to the network.
type seqDialer struct {
	mu   sync.Mutex
	n    int
	fail map[int]bool
	// every makes all even-numbered dials fail once when set.
	everyOther bool
}

func (d *seqDialer) Dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	d.mu.Lock()
	d.n++
	n := d.n
	d.mu.Unlock()
	if d.fail[n] || (d.everyOther && n%2 == 0) {
		return nil, fmt.Errorf("seqDialer: injected refusal of dial %d: %w", n, syscall.ECONNREFUSED)
	}
	return net.DialTimeout(network, addr, timeout)
}

func TestDegradedStripeRuns(t *testing.T) {
	// Dial 1 is the START control connection; dials 2-5 are the four
	// data connections. Refusing dials 2 and 3 with retries disabled
	// must degrade the epoch to two streams, not fail it.
	s := startServer(t)
	d := &seqDialer{fail: map[int]bool{2: true, 3: true}}
	c, err := NewClient(ClientConfig{
		Addr:   s.Addr(),
		Bytes:  xfer.Unbounded,
		Shaper: &Shaper{Rate: 4e6},
		Dialer: d.Dial,
		Retry:  RetryConfig{Attempts: -1}, // single attempt
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run(context.Background(), xfer.Params{NC: 2, NP: 2}, 0.2)
	if err != nil {
		t.Fatalf("degraded epoch failed: %v", err)
	}
	if r.DegradedStreams != 2 {
		t.Fatalf("DegradedStreams = %d, want 2", r.DegradedStreams)
	}
	if r.Bytes <= 0 {
		t.Fatalf("degraded epoch moved no bytes: %+v", r)
	}
}

func TestRetriesRecoverFailedDials(t *testing.T) {
	// Every even-numbered dial fails once; with 3 attempts per
	// connection each stream still comes up, with retries reported.
	s := startServer(t)
	d := &seqDialer{everyOther: true}
	c, err := NewClient(ClientConfig{
		Addr:   s.Addr(),
		Bytes:  xfer.Unbounded,
		Shaper: &Shaper{Rate: 4e6},
		Dialer: d.Dial,
		Retry:  RetryConfig{Attempts: 3, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run(context.Background(), xfer.Params{NC: 2, NP: 1}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if r.DegradedStreams != 0 {
		t.Fatalf("DegradedStreams = %d, want 0 (retries should recover)", r.DegradedStreams)
	}
	if r.Retries == 0 {
		t.Fatal("Retries = 0, want > 0")
	}
	if r.Bytes <= 0 {
		t.Fatalf("no bytes moved: %+v", r)
	}
}

func TestAllDialsFailedIsTransient(t *testing.T) {
	// A server that is gone mid-run must surface as a transient error,
	// so tuner runners keep the trace alive.
	s := startServer(t)
	addr := s.Addr()
	s.Close()
	c, err := NewClient(ClientConfig{
		Addr:        addr,
		Bytes:       1e6,
		DialTimeout: 200 * time.Millisecond,
		Retry:       RetryConfig{Attempts: 2, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(context.Background(), xfer.Params{NC: 1, NP: 1}, 0.1)
	if err == nil {
		t.Fatal("run against dead server succeeded")
	}
	if !xfer.IsTransient(err) {
		t.Fatalf("dead-server error not transient: %v", err)
	}
}

func TestMinStreamsEnforced(t *testing.T) {
	// With MinStreams above the surviving stripe width the epoch must
	// fail transiently rather than run degraded.
	s := startServer(t)
	d := &seqDialer{fail: map[int]bool{2: true, 3: true, 4: true}}
	c, err := NewClient(ClientConfig{
		Addr:       s.Addr(),
		Bytes:      xfer.Unbounded,
		Dialer:     d.Dial,
		Retry:      RetryConfig{Attempts: -1},
		MinStreams: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(context.Background(), xfer.Params{NC: 4, NP: 1}, 0.1)
	if err == nil {
		t.Fatal("epoch below MinStreams succeeded")
	}
	if !xfer.IsTransient(err) {
		t.Fatalf("partial-stripe error not transient: %v", err)
	}
}

func TestMinStreamsAboveStripeWidthIsConfigError(t *testing.T) {
	// When no dial failed and the epoch simply asks for fewer streams
	// than MinStreams, the error is a fatal config error — it must not
	// be transient (it would burn the tuner's outage budget) and must
	// not render a nil %w verb.
	s := startServer(t)
	c, err := NewClient(ClientConfig{
		Addr:       s.Addr(),
		Bytes:      xfer.Unbounded,
		MinStreams: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(context.Background(), xfer.Params{NC: 2, NP: 1}, 0.1)
	if err == nil {
		t.Fatal("epoch below MinStreams succeeded")
	}
	if xfer.IsTransient(err) {
		t.Fatalf("config error wrongly transient: %v", err)
	}
	if s := err.Error(); strings.Contains(s, "%!w") {
		t.Fatalf("error message renders a nil wrap verb: %q", s)
	}
}

func TestReceiverTruthAccounting(t *testing.T) {
	// The epoch's Bytes must equal what the server counted, so a
	// follow-up read of the count agrees immediately rather than
	// eventually.
	s := startServer(t)
	c := newTestClient(t, s, xfer.Unbounded, &Shaper{Rate: 4e6})
	r, err := c.Run(context.Background(), xfer.Params{NC: 2, NP: 2}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ServerReceived()
	if err != nil {
		t.Fatal(err)
	}
	if float64(got) != r.Bytes {
		t.Fatalf("report says %v bytes, server counted %d", r.Bytes, got)
	}
}

func TestTunedTransferSurvivesInjectedFaults(t *testing.T) {
	// Acceptance: a tuned real-socket transfer completes under 20%
	// injected dial failures plus mid-epoch connection resets, and its
	// trace stays monotone in time. Deterministic per seed.
	s := startServer(t)
	in := faultnet.New(faultnet.Config{
		Seed:            11,
		DialFailProb:    0.20,
		ResetAfterBytes: 256 << 10, // every data conn dies mid-epoch
	})
	const size = 4 << 20
	c, err := NewClient(ClientConfig{
		Addr:   s.Addr(),
		Bytes:  size,
		Dialer: in.Dial,
		Retry:  RetryConfig{Attempts: 3, Backoff: time.Millisecond},
		Seed:   11,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tuner.Config{
		Epoch:     0.1,
		Tolerance: 30,
		Box:       directsearch.MustBox([]int{1}, []int{8}),
		Start:     []int{2},
		Map:       tuner.MapNC(1),
		Budget:    30,
		Seed:      5,
		Lambda:    2,
	}
	tr, err := tuner.Run(context.Background(), "cs-tuner", cfg, c)
	if err != nil {
		t.Fatalf("tuned transfer did not survive the faults: %v", err)
	}
	if last := tr.Results[len(tr.Results)-1]; !last.Report.Done {
		t.Fatalf("transfer did not complete: remaining %v after %d epochs",
			c.Remaining(), len(tr.Results))
	}
	if in.Refused() == 0 {
		t.Fatal("injector refused no dials; the test exercised nothing")
	}
	if in.Resets() == 0 {
		t.Fatal("injector reset no connections; the test exercised nothing")
	}
	// Monotone trace: epochs ordered in time, each with End >= Start.
	prevEnd := 0.0
	for i, r := range tr.Results {
		if r.Report.End < r.Report.Start {
			t.Fatalf("epoch %d runs backwards: start %v end %v", i, r.Report.Start, r.Report.End)
		}
		if r.Report.Start < prevEnd {
			t.Fatalf("epoch %d starts (%v) before epoch %d ended (%v)",
				i, r.Report.Start, i-1, prevEnd)
		}
		prevEnd = r.Report.End
	}
	// Receiver truth: the trace's bytes sum to exactly the configured
	// volume — lost (reset) bytes were re-sent, buffered bytes were
	// not double-counted. (The server-side counter is gone by now:
	// Tune's deferred Stop sent CLOSE.)
	var moved float64
	for _, r := range tr.Results {
		moved += r.Report.Bytes
	}
	if moved != size {
		t.Fatalf("trace accounts %v bytes, want %d", moved, size)
	}
	if liveTokens(s) != 0 {
		t.Fatalf("Tokens = %d after Stop, want 0", liveTokens(s))
	}
}

// trackDialer counts dials and can be switched to refuse everything;
// it can also arm a die-after budget on the next dialed connections,
// so a test can kill specific stripes mid-epoch.
type trackDialer struct {
	mu       sync.Mutex
	n        int
	refuse   bool
	dieAfter map[int]int64 // dial number (1-based) -> byte budget
}

func (d *trackDialer) Dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	d.mu.Lock()
	d.n++
	n := d.n
	refuse := d.refuse
	budget, die := d.dieAfter[n]
	d.mu.Unlock()
	if refuse {
		return nil, fmt.Errorf("trackDialer: injected refusal of dial %d: %w", n, syscall.ECONNREFUSED)
	}
	conn, err := net.DialTimeout(network, addr, timeout)
	if err != nil || !die {
		return conn, err
	}
	return &dieAfterConn{Conn: conn, remaining: budget}, nil
}

func (d *trackDialer) dials() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n
}

func (d *trackDialer) setRefuse(v bool) {
	d.mu.Lock()
	d.refuse = v
	d.mu.Unlock()
}

// dieAfterConn fails writes with ECONNRESET once its byte budget is
// spent — a single stripe dying mid-epoch.
type dieAfterConn struct {
	net.Conn
	mu        sync.Mutex
	remaining int64
}

func (c *dieAfterConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.remaining <= 0 {
		return 0, fmt.Errorf("dieAfterConn: %w", syscall.ECONNRESET)
	}
	if int64(len(p)) > c.remaining {
		p = p[:c.remaining]
	}
	n, err := c.Conn.Write(p)
	c.remaining -= int64(n)
	return n, err
}

// slowConn moves its writes at rate bytes per second, a stream of a
// slow WAN: a write that cannot finish before the write deadline writes
// what the rate allows by then and fails with os.ErrDeadlineExceeded,
// as a socket whose send buffer stays full does.
type slowConn struct {
	net.Conn
	rate     float64
	mu       sync.Mutex
	deadline time.Time
}

func (c *slowConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

func (c *slowConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	deadline := c.deadline
	c.mu.Unlock()
	n, err := len(p), error(nil)
	done := time.Now().Add(time.Duration(float64(n) / c.rate * float64(time.Second)))
	if !deadline.IsZero() && done.After(deadline) {
		n = min(len(p), int(max(0, time.Until(deadline).Seconds())*c.rate))
		done, err = deadline, os.ErrDeadlineExceeded
	}
	time.Sleep(time.Until(done))
	m, werr := c.Conn.Write(p[:n])
	if werr != nil {
		return m, werr
	}
	return m, err
}

// TestSlowStripesStayWarm: on streams of 1 MB/s, a frame begun near the
// epoch's end must still be written whole before the stripe's write
// deadline, so no stripe is lost to a half-written frame and the second
// epoch reuses every one.
func TestSlowStripesStayWarm(t *testing.T) {
	s := startServer(t)
	dial := func(network, addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout(network, addr, timeout)
		if err != nil {
			return nil, err
		}
		return &slowConn{Conn: conn, rate: 1e6}, nil
	}
	c, err := NewClient(ClientConfig{Addr: s.Addr(), Bytes: xfer.Unbounded, Dialer: dial})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	p := xfer.Params{NC: 2, NP: 1}
	for ep := 0; ep < 2; ep++ {
		r, err := c.Run(context.Background(), p, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if r.Bytes <= 0 {
			t.Fatalf("epoch %d moved no bytes", ep)
		}
		if ep == 1 && r.ReusedStreams != p.Streams() {
			t.Fatalf("second epoch reused %d of %d slow stripes", r.ReusedStreams, p.Streams())
		}
	}
}

// TestBoundLeaseKeepsItsPromise walks a grid of stripe rates, times
// since the first lease and times left: a lease boundLease grants,
// moving at the rate measured so far, ends before the write deadline,
// and before the epoch deadline once the rate spans rateSpan or a
// quantum. A pump that lost its CPU through its first 64 KiB is not
// cut to a few hundred KiB.
func TestBoundLeaseKeepsItsPromise(t *testing.T) {
	for _, quantum := range []int64{chunkSize, leaseQuantum, zcLeaseQuantum} {
		for _, rate := range []float64{1e5, 1e6, 3e6, 3e7, 1e9, 1e10} {
			for _, elapsed := range []time.Duration{time.Microsecond, time.Millisecond, 20 * time.Millisecond, rateSpan, time.Second} {
				for _, left := range []time.Duration{0, time.Millisecond, 100 * time.Millisecond, time.Second, time.Minute} {
					sent := int64(rate * elapsed.Seconds())
					if sent == 0 {
						continue
					}
					n := boundLease(quantum, sent, elapsed, left)
					if n < chunkSize || n > max(quantum, chunkSize) {
						t.Fatalf("quantum %d, %g B/s, %v in, %v left: bound %d outside [chunkSize, quantum]", quantum, rate, elapsed, left, n)
					}
					if n == chunkSize {
						continue // the floor: the epoch's first lease is one too
					}
					need := time.Duration(float64(n) / rate * float64(time.Second))
					by := left + writeSlack
					if elapsed >= rateSpan || sent >= quantum {
						by = left
					}
					if need > by+time.Microsecond {
						t.Errorf("quantum %d, %g B/s, %v in, %v left: a %d-byte lease takes %v, past %v", quantum, rate, elapsed, left, n, need, by)
					}
				}
			}
		}
	}
	// 64 KiB in 25 ms: a 2.6 MB/s stream or a descheduled pump; either
	// way the lease may run halfway into the slack.
	if n := boundLease(zcLeaseQuantum, chunkSize, 25*time.Millisecond, 175*time.Millisecond); n < 1500<<10 {
		t.Errorf("a descheduled first lease cut the next to %d bytes", n)
	}
}

func TestWarmPoolSteadyStateZeroDials(t *testing.T) {
	// First epoch: one control dial plus one per data connection.
	// Every following epoch with unchanged params: zero dials, full
	// stripe reuse.
	s := startServer(t)
	d := &trackDialer{}
	c, err := NewClient(ClientConfig{Addr: s.Addr(), Bytes: xfer.Unbounded, Dialer: d.Dial})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for ep := 0; ep < 3; ep++ {
		r, err := c.Run(context.Background(), xfer.Params{NC: 2, NP: 1}, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		wantDials, wantReused := 0, 2
		if ep == 0 {
			wantDials, wantReused = 3, 0 // control + 2 data
		}
		if r.Dials != wantDials || r.ReusedStreams != wantReused {
			t.Fatalf("epoch %d: Dials=%d ReusedStreams=%d, want %d/%d",
				ep, r.Dials, r.ReusedStreams, wantDials, wantReused)
		}
		if r.Bytes <= 0 {
			t.Fatalf("epoch %d moved no bytes", ep)
		}
	}
	if d.dials() != 3 {
		t.Fatalf("dialer saw %d dials across 3 epochs, want 3", d.dials())
	}
}

func TestWarmPoolDeltaDialing(t *testing.T) {
	// A +1 nc step dials exactly the missing stripe; a -1 step retires
	// one and dials nothing.
	s := startServer(t)
	d := &trackDialer{}
	c, err := NewClient(ClientConfig{Addr: s.Addr(), Bytes: xfer.Unbounded, Dialer: d.Dial})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if _, err := c.Run(context.Background(), xfer.Params{NC: 2, NP: 1}, 0.05); err != nil {
		t.Fatal(err)
	}
	r, err := c.Run(context.Background(), xfer.Params{NC: 3, NP: 1}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if r.Dials != 1 || r.ReusedStreams != 2 {
		t.Fatalf("+1 step: Dials=%d ReusedStreams=%d, want 1/2", r.Dials, r.ReusedStreams)
	}
	r, err = c.Run(context.Background(), xfer.Params{NC: 2, NP: 1}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if r.Dials != 0 || r.ReusedStreams != 2 {
		t.Fatalf("-1 step: Dials=%d ReusedStreams=%d, want 0/2", r.Dials, r.ReusedStreams)
	}
}

func TestResetEvictsOnlyDeadStripes(t *testing.T) {
	// Kill exactly one of four stripes mid-epoch; the next epoch must
	// reuse the three survivors and re-dial exactly the evicted one.
	s := startServer(t)
	// Dial 1 is control, dials 2-5 are the four data connections; dial
	// 4 dies after 256 KiB.
	d := &trackDialer{dieAfter: map[int]int64{4: 256 << 10}}
	c, err := NewClient(ClientConfig{Addr: s.Addr(), Bytes: xfer.Unbounded, Dialer: d.Dial})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	r, err := c.Run(context.Background(), xfer.Params{NC: 4, NP: 1}, 0.1)
	if err != nil {
		t.Fatalf("epoch with one dying stripe failed: %v", err)
	}
	if r.Bytes <= 0 {
		t.Fatal("epoch moved no bytes")
	}
	r, err = c.Run(context.Background(), xfer.Params{NC: 4, NP: 1}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if r.Dials != 1 || r.ReusedStreams != 3 {
		t.Fatalf("after eviction: Dials=%d ReusedStreams=%d, want 1/3", r.Dials, r.ReusedStreams)
	}
}

func TestWarmPoolMinStreamsDegradation(t *testing.T) {
	// A warm pool of two with all further dials refused: nc=4 with
	// MinStreams=2 runs degraded on the reused pair; MinStreams=3
	// fails transiently but keeps the pool, so recovery is a delta
	// dial, not a cold restart.
	for _, tc := range []struct {
		minStreams int
		wantErr    bool
	}{
		{minStreams: 2, wantErr: false},
		{minStreams: 3, wantErr: true},
	} {
		s := startServer(t)
		// Dial 1 is control, dials 2-5 the four data connections; two
		// of them die mid-epoch, leaving a warm pool of two.
		d := &trackDialer{dieAfter: map[int]int64{4: 128 << 10, 5: 128 << 10}}
		c, err := NewClient(ClientConfig{
			Addr:       s.Addr(),
			Bytes:      xfer.Unbounded,
			Dialer:     d.Dial,
			Retry:      RetryConfig{Attempts: -1},
			MinStreams: tc.minStreams,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(context.Background(), xfer.Params{NC: 4, NP: 1}, 0.1); err != nil {
			t.Fatal(err)
		}
		d.setRefuse(true)
		r, err := c.Run(context.Background(), xfer.Params{NC: 4, NP: 1}, 0.05)
		if tc.wantErr {
			if err == nil {
				t.Fatalf("MinStreams=%d: epoch below the floor succeeded", tc.minStreams)
			}
			if !xfer.IsTransient(err) {
				t.Fatalf("MinStreams=%d: error not transient: %v", tc.minStreams, err)
			}
		} else {
			if err != nil {
				t.Fatalf("MinStreams=%d: degraded warm epoch failed: %v", tc.minStreams, err)
			}
			if r.ReusedStreams != 2 || r.DegradedStreams != 2 {
				t.Fatalf("MinStreams=%d: ReusedStreams=%d DegradedStreams=%d, want 2/2",
					tc.minStreams, r.ReusedStreams, r.DegradedStreams)
			}
		}
		// The degradation is transient either way: once dials succeed
		// again, the next epoch reuses the surviving pair and dials
		// only the missing delta.
		d.setRefuse(false)
		r, err = c.Run(context.Background(), xfer.Params{NC: 4, NP: 1}, 0.05)
		if err != nil {
			t.Fatalf("MinStreams=%d: recovery epoch failed: %v", tc.minStreams, err)
		}
		if r.ReusedStreams != 2 || r.Dials != 2 || r.DegradedStreams != 0 {
			t.Fatalf("MinStreams=%d: recovery ReusedStreams=%d Dials=%d Degraded=%d, want 2/2/0",
				tc.minStreams, r.ReusedStreams, r.Dials, r.DegradedStreams)
		}
		c.Stop()
	}
}

func TestColdStartDialsEveryEpoch(t *testing.T) {
	// ColdStart restores the paper's restart behavior: each epoch
	// re-dials the full stripe and reuses nothing.
	s := startServer(t)
	d := &trackDialer{}
	c, err := NewClient(ClientConfig{Addr: s.Addr(), Bytes: xfer.Unbounded, Dialer: d.Dial, ColdStart: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for ep := 0; ep < 2; ep++ {
		r, err := c.Run(context.Background(), xfer.Params{NC: 2, NP: 1}, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		wantDials := 2 // the control connection stays persistent
		if ep == 0 {
			wantDials = 3
		}
		if r.Dials != wantDials || r.ReusedStreams != 0 {
			t.Fatalf("cold epoch %d: Dials=%d ReusedStreams=%d, want %d/0",
				ep, r.Dials, r.ReusedStreams, wantDials)
		}
	}
}

func TestServerCloseUnderConcurrentConnects(t *testing.T) {
	// Regression for the shutdown race: Close used to sweep s.conns
	// while just-accepted connections were not yet tracked, leaving
	// their handlers blocked in the data drain and Close deadlocked in
	// wg.Wait. Hammer the server with connects while closing it.
	for round := 0; round < 5; round++ {
		s, err := Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := s.Addr()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					conn, err := net.DialTimeout("tcp", addr, time.Second)
					if err != nil {
						return
					}
					fmt.Fprintf(conn, "DATAF race-token\n")
					conn.Write(make([]byte, 4096))
					conn.Close()
				}
			}()
		}
		time.Sleep(20 * time.Millisecond)
		closed := make(chan error, 1)
		go func() { closed <- s.Close() }()
		select {
		case err := <-closed:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close deadlocked under concurrent connects")
		}
		close(stop)
		wg.Wait()
	}
}

func TestStopReleasesServerToken(t *testing.T) {
	s := startServer(t)
	c := newTestClient(t, s, xfer.Unbounded, &Shaper{Rate: 4e6})
	if _, err := c.Run(context.Background(), xfer.Params{NC: 1, NP: 1}, 0.05); err != nil {
		t.Fatal(err)
	}
	if liveTokens(s) != 1 {
		t.Fatalf("Tokens = %d after a run, want 1", liveTokens(s))
	}
	c.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for liveTokens(s) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("Tokens = %d after Stop, want 0", liveTokens(s))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStopReleasesTokenDuringOutage: Stop's CLOSE rides the idle
// control connection, so the token is released even when no new
// connection can be dialed (under the 20 % dial refusals of
// TestTunedTransferSurvivesInjectedFaults, three fresh dials all failed
// once in ~125 runs and left the counter to the janitor).
func TestStopReleasesTokenDuringOutage(t *testing.T) {
	s := startServer(t)
	d := &trackDialer{}
	c, err := NewClient(ClientConfig{Addr: s.Addr(), Bytes: xfer.Unbounded, Shaper: &Shaper{Rate: 4e6}, Dialer: d.Dial})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background(), xfer.Params{NC: 1, NP: 1}, 0.05); err != nil {
		t.Fatal(err)
	}
	d.setRefuse(true)
	c.Stop()
	if n := liveTokens(s); n != 0 {
		t.Fatalf("Tokens = %d after Stop during an outage, want 0", n)
	}
}

// TestDataConnectionCannotResurrectToken: only MANIFEST creates a
// token. A data connection whose header is parsed after the
// token's CLOSE — a stripe dialed while Stop was in flight — must be
// dropped, not re-create a table that nobody will ever release. So
// must a stripe of an older client, whose DATA header is no longer a
// data handshake at all.
func TestDataConnectionCannotResurrectToken(t *testing.T) {
	for _, r := range []struct{ verb, answer string }{
		{"DATA", `ERR unknown command "DATA"`},
		{"DATAF", ""}, // a data connection is never answered
	} {
		t.Run(r.verb, func(t *testing.T) {
			s := startServer(t)
			ctrl, br := dialCtrl(t, s)
			roundTrip(t, ctrl, br, "MANIFEST tok 1\n1000", "OK")
			roundTrip(t, ctrl, br, "CLOSE tok", "OK")
			data, dbr := dialCtrl(t, s)
			if _, err := fmt.Fprintf(data, "%s tok\n%s", r.verb, make([]byte, 1000)); err != nil {
				t.Fatal(err)
			}
			data.SetReadDeadline(time.Now().Add(2 * time.Second))
			if r.answer != "" {
				if line, err := readLine(dbr); line != r.answer {
					t.Fatalf("late %s answered %q (%v), want %q", r.verb, line, err, r.answer)
				}
			}
			// Then the server hangs up on the unknown token or command
			// (EOF, or a reset for the payload it never read).
			if _, err := dbr.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("data connection for a closed token stayed open (read: %v)", err)
			}
			if n, got := liveTokens(s), received(s, "tok"); n != 0 || got != 0 {
				t.Fatalf("Tokens = %d, Received = %d after a late %s; want 0, 0", n, got, r.verb)
			}
		})
	}
}

func TestIdleTokenExpiry(t *testing.T) {
	s := startServer(t)
	s.SetTokenTTL(50 * time.Millisecond)
	// Register a token the way a client that dies without CLOSE does.
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "MANIFEST ghost 1\n10\n")
	readLine(bufio.NewReader(conn))
	conn.Close()
	if liveTokens(s) == 0 {
		t.Fatal("token not registered")
	}
	deadline := time.Now().Add(2 * time.Second)
	for liveTokens(s) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle token never expired; Tokens = %d", liveTokens(s))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestCloseCommandProtocol(t *testing.T) {
	s := startServer(t)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	fmt.Fprintf(conn, "MANIFEST tokc 1\n10\n")
	if resp, _ := readLine(br); resp != "OK" {
		t.Fatalf("MANIFEST got %q", resp)
	}
	fmt.Fprintf(conn, "CLOSE tokc\n")
	if resp, _ := readLine(br); resp != "OK" {
		t.Fatalf("CLOSE got %q", resp)
	}
	if liveTokens(s) != 0 {
		t.Fatalf("Tokens = %d after CLOSE, want 0", liveTokens(s))
	}
	fmt.Fprintf(conn, "CLOSE\n")
	if resp, _ := readLine(br); resp != "ERR bad CLOSE" {
		t.Fatalf("bad CLOSE got %q", resp)
	}
}

// TestBackoffCap: at a 200 ms base the backoff doubles to 400 and 800 ms
// and is capped at maxBackoff from the fourth retry on, each scaled by a
// jitter in [0.5, 1.5). Nothing sleeps.
func TestBackoffCap(t *testing.T) {
	c, err := NewClient(ClientConfig{Addr: "x", Bytes: 1, Seed: 7, Retry: RetryConfig{Backoff: 200 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 10; k++ {
		d := time.Second // capped from the fourth retry on
		if k <= 3 {
			d = 200 * time.Millisecond << (k - 1)
		}
		if got := c.backoff(k); got < d/2 || got >= d+d/2 {
			t.Errorf("backoff(%d) = %v, want in [%v, %v)", k, got, d/2, d+d/2)
		}
	}
}
