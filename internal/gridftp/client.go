package gridftp

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dstune/internal/dataset"
	"dstune/internal/obs"
	"dstune/internal/tcpinfo"
	"dstune/internal/xfer"
)

// DialFunc dials a network address with a timeout; it is the
// signature of net.DialTimeout. Clients accept one so tests can
// substitute a fault-injecting dialer (internal/faultnet).
type DialFunc func(network, addr string, timeout time.Duration) (net.Conn, error)

// RetryConfig governs per-connection dial retries. Each failed dial
// (or data-header write) is retried after an exponentially growing,
// jittered backoff, up to Attempts total tries.
type RetryConfig struct {
	// Attempts is the total number of tries per connection (first try
	// included); zero selects 3, values below 1 select 1.
	Attempts int
	// Backoff is the delay before the first retry; it doubles per
	// retry. Zero selects 50 ms.
	Backoff time.Duration
	// MaxBackoff caps the grown backoff; zero selects 1 s.
	MaxBackoff time.Duration
}

// withDefaults returns r with zero fields replaced by defaults.
func (r RetryConfig) withDefaults() RetryConfig {
	if r.Attempts == 0 {
		r.Attempts = 3
	}
	if r.Attempts < 1 {
		r.Attempts = 1
	}
	if r.Backoff == 0 {
		r.Backoff = 50 * time.Millisecond
	}
	if r.MaxBackoff == 0 {
		r.MaxBackoff = time.Second
	}
	return r
}

// ClientConfig configures a transfer client.
type ClientConfig struct {
	// Addr is the server's address.
	Addr string
	// Bytes is the total volume to transfer; use xfer.Unbounded for
	// open-ended runs. With a Dataset, leave it zero (it is derived
	// from the dataset's total size).
	Bytes float64
	// Dataset, when non-empty, switches the client from the bulk
	// memory-to-memory stream to the multi-file framed data plane: the
	// dataset is registered on the server by a MANIFEST exchange, data
	// connections carry per-file segments behind FILE headers, file
	// starts are pipelined up to the epoch's pp depth (Params.PP), and
	// accounting is per-file receiver truth. Empty keeps the bulk
	// plane bit-for-bit unchanged.
	Dataset dataset.Dataset
	// SourceDir switches the dataset's payload from synthesized zeros
	// to real file contents: manifest entry i is read from
	// SourceDir/<name>. Validated up front — every name must be a
	// local path and exist as a regular file of at least the manifest
	// size. On Linux, leases on unwrapped *net.TCPConn stripes are
	// routed through sendfile(2), so payload bytes never cross
	// userspace; elsewhere — under the dstune_nozerocopy build tag, or
	// on wrapped connections — a portable pread+writev pump produces
	// the identical byte stream. Requires a Dataset.
	SourceDir string
	// RequestSink asks the server to persist the transferred files
	// under its configured sink directory (Server.SetSink) instead of
	// discarding them, via the SINK flag on the manifest. A server
	// without a sink refuses the manifest, failing the epoch fatally.
	// Requires a Dataset.
	RequestSink bool
	// TCPInfo samples every surviving data connection's kernel TCP
	// state (RTT, cwnd, delivery rate, retransmits) at each epoch
	// boundary via getsockopt(TCP_INFO), surfacing per-stripe samples
	// on Report.Kernel and the session's observability instruments.
	// Linux only; elsewhere — and on wrapped connections — Kernel
	// simply stays nil.
	TCPInfo bool
	// Shaper optionally imposes per-connection rate limits; nil
	// pumps at full speed.
	Shaper *Shaper
	// Token identifies the transfer on the server; empty generates
	// one.
	Token string
	// DialTimeout bounds each connection setup; zero selects 5 s.
	DialTimeout time.Duration
	// Dialer overrides the network dialer; nil uses net.DialTimeout.
	Dialer DialFunc
	// Retry governs per-connection dial retries and backoff.
	Retry RetryConfig
	// MinStreams is the minimum number of data connections an epoch
	// must establish after retries to proceed degraded instead of
	// failing; zero selects 1.
	MinStreams int
	// Seed drives the backoff jitter, deterministic per seed.
	Seed uint64
	// AckedBytes seeds the receiver-confirmed byte count when resuming
	// a checkpointed transfer: the server has already received this
	// many bytes for Token, so Bytes-AckedBytes remain to send.
	// Requires an explicit Token (the server-side counter must be the
	// same one the original session fed).
	AckedBytes float64
	// ClockOffset advances the transfer clock when resuming: Now
	// reports ClockOffset plus the wall time since the first Run, so a
	// tuning Budget counts cumulative transfer time across sessions.
	ClockOffset float64
	// SockBuf, when positive, sizes the kernel socket buffers
	// (SetReadBuffer/SetWriteBuffer) of every data connection, in
	// bytes. Zero keeps the OS default.
	SockBuf int
	// ColdStart disables the warm stripe pool: every epoch performs
	// the START handshake and dials a fresh set of data connections,
	// tearing them down afterwards — the per-epoch process restart of
	// the paper's wrappers. The default (false) keeps data connections
	// and the control connection alive across epochs, so a
	// steady-state epoch performs zero dials.
	ColdStart bool
	// Obs, when non-nil, receives the client's fine-grained data-plane
	// events (StripeDialed, StripeEvicted) and keeps the warm-pool
	// gauge current. Per-epoch aggregates (dials, retries, throughput)
	// are recorded by the epoch engine from the epoch Report, not
	// here, so the two layers never double-count. Nil disables
	// observation; the pump path is never instrumented either way.
	Obs *obs.SessionObs
}

// clientSeq disambiguates generated tokens within a process.
var clientSeq atomic.Int64

// Client is a striped memory-to-memory sender. It implements
// xfer.Transferer against wall-clock time: each Run pumps zeros over
// nc*np data connections for the epoch. The data plane is warm by
// default — connections persist in a stripe pool across Run calls and
// only the delta between epochs is dialed or retired (see the package
// comment); ClientConfig.ColdStart restores the per-epoch restart.
//
// Run is fault-tolerant: connection setup retries transiently failed
// dials with exponential backoff, and an epoch whose stripe partly
// fails after retries runs degraded on the surviving streams (see the
// package comment's error taxonomy). Run must not be called
// concurrently with itself.
type Client struct {
	cfg   ClientConfig
	token string
	// plane is the bulk stream or the framed file plane, chosen once
	// in NewClient from ClientConfig.Dataset.
	plane dataPlane

	rngMu sync.Mutex
	rng   *rand.Rand

	// stopped is cancelled by Stop with cause xfer.ErrStopped. Run
	// joins it to its caller's context, so below Run one ctx carries
	// both "the caller gave up" and "the client was stopped".
	stopped context.Context
	stop    context.CancelCauseFunc

	mu        sync.Mutex
	remaining atomic.Int64
	start     time.Time
	started   bool
	inRun     bool // a Run is in flight (and may be using ctrl)
	runs      int
	acked     int64 // server-confirmed bytes (receiver truth)

	// Warm data plane, guarded by mu so Stop can sweep it while a Run
	// is in flight. Only Run mutates it otherwise (Run is not
	// concurrent with itself).
	pool  []net.Conn    // live data stripes, surviving Run boundaries
	ctrl  net.Conn      // persistent control connection
	ctrlR *bufio.Reader // reader paired with ctrl

	lastRetrans int64 // summed stripe retransmit counters last sample
	// seen is where SETTLE's expected count starts from: what the
	// server's aggregate counter for the token will read once everything
	// written so far is in (see settled); -1 until the first arm has
	// read it. Only Run touches it.
	seen int64
}

// NewClient returns a client for cfg. It does not touch the network
// until the first Run.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("gridftp: address required")
	}
	datasetMode := cfg.Dataset.Count() > 0
	if datasetMode {
		total := cfg.Dataset.TotalBytes()
		if cfg.Bytes == 0 {
			cfg.Bytes = float64(total)
		} else if cfg.Bytes != float64(total) {
			return nil, fmt.Errorf("gridftp: Bytes %v disagrees with the dataset's %d bytes; leave it zero", cfg.Bytes, total)
		}
	}
	if cfg.Bytes <= 0 {
		return nil, fmt.Errorf("gridftp: transfer size must be positive, got %v", cfg.Bytes)
	}
	if cfg.SourceDir != "" && !datasetMode {
		return nil, fmt.Errorf("gridftp: SourceDir requires a Dataset")
	}
	if cfg.RequestSink && !datasetMode {
		return nil, fmt.Errorf("gridftp: RequestSink requires a Dataset")
	}
	if cfg.AckedBytes < 0 || cfg.AckedBytes > cfg.Bytes {
		return nil, fmt.Errorf("gridftp: acked bytes %v outside [0, %v]", cfg.AckedBytes, cfg.Bytes)
	}
	if cfg.AckedBytes > 0 && cfg.Token == "" {
		return nil, fmt.Errorf("gridftp: resuming a transfer (AckedBytes > 0) requires its token")
	}
	if cfg.ClockOffset < 0 {
		return nil, fmt.Errorf("gridftp: negative clock offset %v", cfg.ClockOffset)
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.Token == "" {
		cfg.Token = fmt.Sprintf("xfer-%d-%d", time.Now().UnixNano(), clientSeq.Add(1))
	}
	if cfg.Dialer == nil {
		cfg.Dialer = net.DialTimeout
	}
	cfg.Retry = cfg.Retry.withDefaults()
	if cfg.MinStreams < 1 {
		cfg.MinStreams = 1
	}
	c := &Client{
		cfg:   cfg,
		token: cfg.Token,
		rng:   rand.New(rand.NewSource(int64(cfg.Seed))),
	}
	c.stopped, c.stop = context.WithCancelCause(context.Background())
	c.acked = int64(cfg.AckedBytes)
	c.seen = -1
	if cfg.Bytes >= float64(int64(1)<<62) {
		c.remaining.Store(int64(1) << 62)
	} else {
		c.remaining.Store(int64(cfg.Bytes - cfg.AckedBytes))
	}
	c.plane = bulkPlane{c}
	if datasetMode {
		fp, err := newFramedPlane(c)
		if err != nil {
			return nil, err
		}
		c.plane = fp
	}
	return c, nil
}

// Token returns the transfer's identifying token on the server.
func (c *Client) Token() string { return c.token }

// Remaining implements xfer.Transferer.
func (c *Client) Remaining() float64 {
	r := c.remaining.Load()
	if r < 0 {
		return 0
	}
	return float64(r)
}

// Now implements xfer.Transferer: the configured clock offset plus
// wall-clock seconds since the first Run.
func (c *Client) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.started {
		return c.cfg.ClockOffset
	}
	return c.cfg.ClockOffset + time.Since(c.start).Seconds()
}

// Snapshot implements xfer.Snapshotter: the receiver-confirmed byte
// count, the sender's remaining budget, and the cumulative clock. A
// later session resumes the transfer with a client built from
// ClientConfig{Bytes: Total, Token: Token, AckedBytes: Acked,
// ClockOffset: Clock} — as long as the transfer was not stopped, so
// the server still holds the token's counter.
func (c *Client) Snapshot() xfer.TransferState {
	unbounded := c.cfg.Bytes >= float64(int64(1)<<62)
	s := xfer.TransferState{
		Total: c.cfg.Bytes,
		Clock: c.Now(),
		Token: c.token,
	}
	c.mu.Lock()
	s.Acked = float64(c.acked)
	c.mu.Unlock()
	if unbounded {
		s.Total = -1
		s.Remaining = -1
		return s
	}
	s.Remaining = c.Remaining()
	return s
}

// Stop implements xfer.Transferer. It aborts an in-flight Run —
// including its retry backoffs and failed-epoch pacing — closes the
// warm stripe pool and control connection, and releases the
// transfer's token counter on the server (a best-effort CLOSE
// exchange), so long-lived servers don't accumulate dead counters.
func (c *Client) Stop() {
	c.mu.Lock()
	already := c.stopped.Err() != nil
	c.stop(xfer.ErrStopped)
	started, inRun := c.started, c.inRun
	pool, ctrl, br := c.pool, c.ctrl, c.ctrlR
	c.pool, c.ctrl, c.ctrlR = nil, nil, nil
	c.mu.Unlock()
	if already {
		return
	}
	for _, conn := range pool {
		conn.Close()
	}
	if ctrl != nil && inRun {
		// An epoch may be blocked reading it; closing it is what
		// unblocks that read.
		ctrl.Close()
		ctrl = nil
	}
	if !started {
		return
	}
	// Best-effort CLOSE: first on the idle control connection, which
	// needs no dial to succeed, then on connections of its own
	// (ctrlConn refuses a stopped client) — retried under a context Stop
	// did not just cancel, bounded by the configured attempts.
	cmd := "CLOSE " + c.token
	closeOn := func(conn net.Conn, br *bufio.Reader) error {
		defer conn.Close()
		return c.send(conn, br, cmd, oneLine(cmd, "OK", new(string)))
	}
	if ctrl != nil && closeOn(ctrl, br) == nil {
		return
	}
	c.retry(context.Background(), new(cost), func() error {
		conn, err := c.cfg.Dialer("tcp", c.cfg.Addr, c.cfg.DialTimeout)
		if err != nil {
			return err
		}
		return closeOn(conn, bufio.NewReader(conn))
	})
}

// sleep waits for d, or until ctx ends if that comes first.
func sleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// interrupted returns the governing interrupt error of a Run context
// (the caller's ctx joined to the client's stop signal), if any: the
// context's error, or xfer.ErrStopped after Stop.
func interrupted(ctx context.Context) error {
	if ctx.Err() != nil && errors.Is(context.Cause(ctx), xfer.ErrStopped) {
		return xfer.ErrStopped
	}
	return ctx.Err()
}

// onAbort arranges for f to run, once, if ctx ends before the returned
// release is called; release waits out an f that has already started,
// so the caller may touch f's state again afterwards.
func onAbort(ctx context.Context, f func()) (release func()) {
	done := make(chan struct{})
	cancel := context.AfterFunc(ctx, func() {
		defer close(done)
		f()
	})
	return func() {
		if !cancel() {
			<-done
		}
	}
}

// backoff returns the jittered sleep before retry k (1-based): the
// configured base doubled per retry, capped, scaled by a seeded
// random factor in [0.5, 1.5).
func (c *Client) backoff(k int) time.Duration {
	d := c.cfg.Retry.Backoff
	for i := 1; i < k && d < c.cfg.Retry.MaxBackoff; i++ {
		d *= 2
	}
	if d > c.cfg.Retry.MaxBackoff {
		d = c.cfg.Retry.MaxBackoff
	}
	c.rngMu.Lock()
	j := 0.5 + c.rng.Float64()
	c.rngMu.Unlock()
	return time.Duration(float64(d) * j)
}

// cost tallies the dials (attempted, successful or not) and retries
// an operation spent; an epoch's cost is its Report.Dials and
// Report.Retries.
type cost struct{ dials, retries int }

// retry runs op up to Retry.Attempts times, backing off before each
// retry, until it succeeds or fails with a non-transient error. An
// interrupt (ctx cancelled, or the client stopped) ends the attempts
// with the interrupt error, cutting a backoff short.
func (c *Client) retry(ctx context.Context, t *cost, op func() error) (err error) {
	for k := 0; k < c.cfg.Retry.Attempts; k++ {
		if k > 0 {
			t.retries++
			sleep(ctx, c.backoff(k))
		}
		if ierr := interrupted(ctx); ierr != nil {
			return ierr
		}
		if err = op(); !transientNetErr(err) {
			return err
		}
	}
	return err
}

// ctrlConn returns the persistent control connection, dialing it (and
// tallying the dial) when absent.
func (c *Client) ctrlConn(t *cost) (net.Conn, *bufio.Reader, error) {
	c.mu.Lock()
	conn, br := c.ctrl, c.ctrlR
	c.mu.Unlock()
	if conn != nil {
		return conn, br, nil
	}
	t.dials++
	conn, err := c.cfg.Dialer("tcp", c.cfg.Addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, nil, err
	}
	br = bufio.NewReader(conn)
	c.mu.Lock()
	if c.stopped.Err() != nil {
		c.mu.Unlock()
		conn.Close()
		return nil, nil, xfer.ErrStopped
	}
	c.ctrl, c.ctrlR = conn, br
	c.mu.Unlock()
	return conn, br, nil
}

// dropCtrl discards the persistent control connection (after an
// exchange error) so the next exchange re-dials it.
func (c *Client) dropCtrl(conn net.Conn) {
	c.mu.Lock()
	if c.ctrl == conn {
		c.ctrl, c.ctrlR = nil, nil
	}
	c.mu.Unlock()
	conn.Close()
}

// send writes cmd on conn and hands the response to read, all under
// one DialTimeout deadline.
func (c *Client) send(conn net.Conn, br *bufio.Reader, cmd string, read func(*bufio.Reader) error) error {
	conn.SetDeadline(time.Now().Add(c.cfg.DialTimeout))
	if _, err := fmt.Fprintf(conn, "%s\n", cmd); err != nil {
		return err
	}
	if err := read(br); err != nil {
		return err
	}
	conn.SetDeadline(time.Time{})
	return nil
}

// oneLine returns send's response reader for the one-line answers:
// the line must start with wantPrefix and is stored in *resp.
func oneLine(cmd, wantPrefix string, resp *string) func(*bufio.Reader) error {
	return func(br *bufio.Reader) (err error) {
		if *resp, err = readLine(br); err == nil && !strings.HasPrefix(*resp, wantPrefix) {
			err = fmt.Errorf("%w: %q to %q got %q", ErrProtocol, cmd, wantPrefix, *resp)
		}
		return err
	}
}

// roundTrip performs one command/response exchange on the persistent
// control connection, dialing it only when absent and retrying
// transient failures per the retry config; read consumes the response
// (one line for most verbs, a block for RESYNC). A failed exchange
// discards the connection so the next attempt re-dials.
func (c *Client) roundTrip(ctx context.Context, t *cost, cmd string, read func(*bufio.Reader) error) error {
	return c.retry(ctx, t, func() error {
		conn, br, err := c.ctrlConn(t)
		if err != nil {
			return err
		}
		if err = c.send(conn, br, cmd, read); err != nil {
			c.dropCtrl(conn)
		}
		return err
	})
}

// exchange is roundTrip for the one-line responses: it returns the
// line, which must start with wantPrefix.
func (c *Client) exchange(ctx context.Context, t *cost, cmd, wantPrefix string) (resp string, err error) {
	err = c.roundTrip(ctx, t, cmd, oneLine(cmd, wantPrefix, &resp))
	return resp, err
}

// ServerReceived asks the server how many bytes it has received for
// this transfer's token: a SETTLE that expects nothing, so it is
// answered at once, on the persistent control connection.
func (c *Client) ServerReceived() (int64, error) {
	resp, err := c.exchange(c.stopped, new(cost), "SETTLE "+c.token+" 0", "SETTLED ")
	if err != nil {
		return 0, err
	}
	var n int64
	if _, err := fmt.Sscanf(resp, "SETTLED %d", &n); err != nil {
		return 0, fmt.Errorf("%w: bad SETTLE response %q", ErrProtocol, resp)
	}
	return n, nil
}

// receiverTruth is the server's answer to SETTLE — the token's aggregate
// byte counter and, on the file plane, the completed-file count and the
// duplicate-free received bytes — and what settled made of it.
type receiverTruth struct {
	bytes  int64
	done   int
	useful int64
	// pending is how far bytes fell short of the expected count although
	// no stripe died: late, then, not lost — nothing goes back to the
	// budget, and the next settle waits for it.
	pending int64
	// refund is the expected count less bytes wherever settled took
	// bytes as the new starting point: what a dead stripe lost
	// (positive, back to the budget) or what arrived that nobody
	// expected (negative).
	refund int64
}

// settled is the one round trip in which an epoch learns receiver
// truth: it tells the server what its counter should reach — seen plus
// the sent bytes the stripes just wrote — and the server answers when
// it has, or when the difference is not coming (see Server.serveSettle).
// A failed exchange leaves the caller with the sender's count.
//
// The answer is an instant's reading, and seen must be where the
// counter ends up or every later settle inherits the error. Bytes
// written to a stripe that is still alive do arrive, so an epoch in
// which none died moves seen on by exactly what it wrote, whatever the
// answer said: a count cut short by a spuriously quiet 5 ms (a drain
// starved of CPU) is pending, and the next settle waits for it. Only
// where the expectation is known to be off — a stripe died with bytes
// in its socket buffer, the counter is past it, or below where the
// epoch began (the server dropped the token) — is the answer itself the
// new starting point; giveUp says the caller will wait for pending
// bytes no longer and wants them counted as lost.
func (c *Client) settled(ctx context.Context, e *epoch, sent int64, giveUp bool) (rt receiverTruth, err error) {
	began, expect := c.seen, c.seen+sent
	c.seen = expect
	cmd := fmt.Sprintf("SETTLE %s %d", c.token, expect)
	resp, err := c.exchange(ctx, &e.cost, cmd, "SETTLED ")
	if err != nil {
		return rt, err
	}
	if _, err := fmt.Sscanf(resp, "SETTLED %d %d %d", &rt.bytes, &rt.done, &rt.useful); err != nil {
		return rt, fmt.Errorf("%w: bad SETTLE response %q", ErrProtocol, resp)
	}
	lossy := slices.ContainsFunc(e.stripes, func(s stripeResult) bool { return !s.alive })
	if giveUp || lossy || rt.bytes < began || rt.bytes > expect {
		rt.refund = expect - rt.bytes
		c.seen = rt.bytes
	} else {
		rt.pending = expect - rt.bytes
	}
	return rt, nil
}

// dialData establishes one data connection (dial plus the plane's
// header), retrying transient failures.
func (c *Client) dialData(ctx context.Context, t *cost) (data net.Conn, err error) {
	err = c.retry(ctx, t, func() error {
		t.dials++
		conn, err := c.cfg.Dialer("tcp", c.cfg.Addr, c.cfg.DialTimeout)
		if err != nil {
			return err
		}
		if _, err = fmt.Fprintf(conn, "%s %s\n", c.plane.verb(), c.token); err != nil {
			conn.Close()
			return err
		}
		setSockBuf(conn, c.cfg.SockBuf)
		data = conn
		return nil
	})
	return data, err
}

// takePool detaches the warm stripe pool from the client, giving the
// caller exclusive ownership for the epoch (so a concurrent Stop
// cannot double-close the connections mid-pump).
func (c *Client) takePool() []net.Conn {
	c.mu.Lock()
	pool := c.pool
	c.pool = nil
	c.mu.Unlock()
	return pool
}

// storePool re-attaches the epoch's surviving connections as the warm
// pool for the next epoch; if the client was stopped meanwhile, they
// are closed instead.
func (c *Client) storePool(conns []net.Conn) {
	c.mu.Lock()
	stopped := c.stopped.Err() != nil
	if !stopped {
		c.pool = conns
	}
	c.mu.Unlock()
	if stopped {
		for _, conn := range conns {
			conn.Close()
		}
		conns = nil
	}
	c.cfg.Obs.SetPool(len(conns))
}

// dataPlane is the seam between the two wire formats a transfer can
// use — the bulk stream (DATA, an anonymous byte budget) and the framed
// file plane (DATAF, a per-file work queue, MANIFEST, OPEN and RESYNC).
// They differ in exactly these four places; everything else
// about an epoch is written once, in Run's phases.
type dataPlane interface {
	// verb is the header word a data connection announces itself with.
	verb() string
	// arm follows the epoch's START with whatever the plane must
	// have in place on the server before data flows. An error aborts
	// the epoch.
	arm(ctx context.Context, e *epoch) error
	// pump starts the plane's own share of the pump phase and returns
	// what every stripe goroutine runs — it reports the payload bytes
	// written and whether the connection is still usable — plus a join
	// the pump phase calls once every stripe has returned.
	pump(ctx context.Context, e *epoch) (stripe func(net.Conn) (sent int64, alive bool), join func())
	// settle turns receiver truth into the epoch's Bytes and Files and
	// the transfer's remaining budget; sent is what the stripes wrote.
	settle(ctx context.Context, e *epoch, sent int64, r *xfer.Report)
}

// epoch is one Run's working state, threaded through its phases.
type epoch struct {
	p        xfer.Params
	began    time.Time     // arm starts here; DeadTime and failed-epoch pacing count from it
	length   time.Duration // the nominal epoch
	deadline time.Time     // end of the pump phase
	rate     float64       // shaped per-connection byte rate; +Inf unshaped
	cost                   // dials and retries spent so far
	reused   int           // stripes taken over from the warm pool
	degraded int           // stripes given up on after retries
	found    int64         // first arm only: bytes the token held beyond what the session had acknowledged

	// pool is the stripe set, owned by the epoch from takePool to
	// storePool; stripes[i] is what pool[i]'s pump goroutine reported
	// (each goroutine writes only its own slot).
	pool    []net.Conn
	stripes []stripeResult
}

// stripeResult is what one stripe's pump reported: the payload bytes
// it wrote and whether its connection is still usable.
type stripeResult struct {
	sent  int64
	alive bool
}

// bulkPlane is the memory-to-memory stream: every stripe drains one
// shared byte budget, and receiver truth is the token's byte counter.
type bulkPlane struct{ c *Client }

// verb: bulk data connections announce themselves with DATA.
func (bulkPlane) verb() string { return "DATA" }

// pump hands every stripe the zero pump over the shared byte budget.
func (b bulkPlane) pump(ctx context.Context, e *epoch) (func(net.Conn) (int64, bool), func()) {
	return func(conn net.Conn) (int64, bool) {
		return pump(conn, e.rate, e.deadline, &b.c.remaining, ctx.Done())
	}, func() {}
}

// arm claims what a resumed token holds beyond the checkpoint — the
// killed session's last writes, found by the first arm's START — so the
// budget does not send it again; the first settle credits it.
func (b bulkPlane) arm(_ context.Context, e *epoch) error {
	if e.found > 0 {
		b.c.remaining.Add(-e.found)
	}
	return nil
}

// settle reconciles against the server's byte count: bytes lost to a
// reset go back to the budget, arrivals nobody expected are claimed
// from it. A count that is short with every stripe alive is late, not
// lost, and left for the next settle — unless the budget is spent, when
// there may be no next one: then the transfer would end short if the
// bytes are in fact gone (the server's end died, unseen), and resend
// them if it gave them up while they are merely late. So it asks once
// more, and only then gives up what is still missing.
func (b bulkPlane) settle(ctx context.Context, e *epoch, sent int64, r *xfer.Report) {
	c := b.c
	truth, err := c.settled(ctx, e, sent, false)
	if err == nil && truth.pending > 0 && c.remaining.Load() <= 0 {
		truth, err = c.settled(ctx, e, 0, true)
	}
	if err != nil {
		return
	}
	c.mu.Lock()
	prev := c.acked
	c.acked = truth.bytes
	c.mu.Unlock()
	// A negative delta means the server's counter restarted (idle-token
	// expiry); keep local accounting for this epoch and resync.
	if delta := truth.bytes - prev; delta >= 0 {
		c.remaining.Add(truth.refund)
		r.Bytes = float64(delta)
	}
}

// Run implements xfer.Transferer. The epoch is wall-clock seconds,
// spent in six phases: arm (START on the control connection, then
// whatever the data plane needs registered),
// dialDelta (retire surplus stripes, dial the missing ones),
// pumpEpoch, evict (kernel sample, then dead stripes leave the pool),
// settle (receiver truth) and report. Report.DeadTime is arm plus
// dialDelta, retry backoffs included — the restart analog the paper
// measures. A transiently failed epoch (server unreachable, stripe
// below MinStreams) still consumes its epoch of wall time, so the
// tuner's consecutive-failure budget maps onto outage duration.
// Cancelling ctx aborts the epoch promptly at any point — dial
// backoffs, failed-epoch pacing, or mid-pump — and Run returns the
// partial epoch's report with its byte accounting reconciled against
// the server, together with the context's error. A cancelled (not
// stopped) client keeps its warm pool, so a resumed session in the
// same process re-arms without dialing.
func (c *Client) Run(caller context.Context, p xfer.Params, epochSecs float64) (xfer.Report, error) {
	if err := caller.Err(); err != nil {
		return xfer.Report{}, err
	}
	c.mu.Lock()
	if c.stopped.Err() != nil {
		c.mu.Unlock()
		return xfer.Report{}, xfer.ErrStopped
	}
	if epochSecs <= 0 {
		c.mu.Unlock()
		return xfer.Report{}, xfer.ErrBadEpoch
	}
	if !p.Valid() {
		c.mu.Unlock()
		return xfer.Report{}, xfer.ErrBadParams
	}
	if !c.started {
		c.started = true
		c.start = time.Now()
	}
	c.runs++
	r := xfer.Report{Params: p, Run: c.runs, Start: c.cfg.ClockOffset + time.Since(c.start).Seconds()}
	c.inRun = true
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.inRun = false
		c.mu.Unlock()
	}()

	if c.remaining.Load() <= 0 {
		r.End, r.Done = r.Start, true
		return r, nil
	}

	// One signal below this line: ctx ends when the caller cancels or
	// when Stop does, and its cause tells the two apart.
	ctx, cancel := context.WithCancelCause(caller)
	defer cancel(nil)
	unhook := context.AfterFunc(c.stopped, func() { cancel(xfer.ErrStopped) })
	defer unhook()

	pool := c.takePool()
	if c.cfg.ColdStart {
		// Stripes a failed epoch left pooled: cold never reuses one.
		for _, conn := range pool {
			conn.Close()
		}
		pool = nil
	}
	e := &epoch{p: p, began: time.Now(), length: time.Duration(epochSecs * float64(time.Second)), pool: pool}
	err := c.arm(ctx, e)
	if err == nil {
		err = c.dialDelta(ctx, e)
	}
	if err != nil {
		return xfer.Report{}, c.abortEpoch(ctx, e, err)
	}
	r.DeadTime = time.Since(e.began).Seconds()
	sent := c.pumpEpoch(ctx, e)
	r.Kernel = c.evict(e)
	// Settle under the stop signal alone: a cancelled epoch still
	// reconciles its partial volume (that is what gets checkpointed),
	// a stopped one has no server state left to ask about.
	r.Bytes = float64(sent)
	c.plane.settle(c.stopped, e, sent, &r)
	return c.report(r, e), caller.Err()
}

// arm re-arms the server for the epoch — one START on the control
// connection, whether the stripe is cold (the restart analog) or warm —
// then makes the data plane's own preparations. START answers with
// where the token's counter stands, and a session's first arm keeps
// that reading: nothing of this session is in flight yet, the one
// moment it is exact, also for a resumed token that holds whatever its
// killed session wrote after the checkpoint.
func (c *Client) arm(ctx context.Context, e *epoch) error {
	resp, err := c.exchange(ctx, &e.cost, "START "+c.token, "OK ")
	if err != nil {
		return fmt.Errorf("gridftp: start: %w", err)
	}
	var n int64
	if _, err := fmt.Sscanf(resp, "OK %d", &n); err != nil {
		return fmt.Errorf("gridftp: start: %w: bad START response %q", ErrProtocol, resp)
	}
	if c.seen < 0 {
		c.seen = n
		c.mu.Lock()
		e.found = n - c.acked
		c.mu.Unlock()
	}
	return c.plane.arm(ctx, e)
}

// dialDelta brings the stripe to the epoch's width: surplus
// connections are retired, only the missing ones are dialed, and the
// rest of the pool is reused as-is. Dials that fail after retries
// degrade the epoch; below MinStreams it cannot run.
func (c *Client) dialDelta(ctx context.Context, e *epoch) error {
	n := e.p.Streams()
	for len(e.pool) > n {
		e.pool[len(e.pool)-1].Close()
		e.pool = e.pool[:len(e.pool)-1]
	}
	e.reused = len(e.pool)
	var lastErr error
	for len(e.pool)+e.degraded < n {
		conn, err := c.dialData(ctx, &e.cost)
		if err != nil {
			if ierr := interrupted(ctx); ierr != nil {
				return ierr
			}
			e.degraded++
			lastErr = err
			continue
		}
		e.pool = append(e.pool, conn)
		c.cfg.Obs.StripeDialed(c.Now(), len(e.pool))
	}
	switch {
	case len(e.pool) >= c.cfg.MinStreams:
		return nil
	case lastErr == nil:
		// No dial failed: the epoch simply asked for fewer streams
		// than MinStreams. A configuration error, not an outage.
		return fmt.Errorf("gridftp: epoch uses %d data connections but MinStreams is %d", n, c.cfg.MinStreams)
	default:
		return fmt.Errorf("gridftp: only %d/%d data connections (min %d): %w", len(e.pool), n, c.cfg.MinStreams, lastErr)
	}
}

// abortEpoch ends an epoch that cannot reach its pump. The surviving
// stripes stay pooled, so the next epoch re-dials only the missing
// delta; an interrupt (ctx cancel or Stop) supersedes err; and a
// transient failure is paced to the epoch's nominal duration. The
// tuner's outage tolerance (MaxTransientFailures) is counted in
// consecutive epochs; a refused dial fails in milliseconds, so without
// pacing N failed epochs burn in well under a second and no real
// outage could be ridden out. Fatal errors return immediately, and so
// does an interrupt during the pacing wait, so a cancellation during
// an outage surfaces within milliseconds instead of after the rest of
// the epoch.
func (c *Client) abortEpoch(ctx context.Context, e *epoch, err error) error {
	c.storePool(e.pool)
	if err = classify(err); xfer.IsTransient(err) {
		sleep(ctx, time.Until(e.began.Add(e.length)))
	}
	if ierr := interrupted(ctx); ierr != nil {
		return ierr
	}
	return err
}

// pumpEpoch runs the data plane's pump on every stripe until the epoch
// deadline and returns the bytes written. An interrupt (ctx cancel or
// Stop) expires every stream's write deadline, so blocked writes fail
// immediately and each pump returns its unsent budget.
func (c *Client) pumpEpoch(ctx context.Context, e *epoch) (sent int64) {
	e.deadline = time.Now().Add(e.length)
	e.rate = c.cfg.Shaper.perConnRate(len(e.pool))
	e.stripes = make([]stripeResult, len(e.pool))
	stripe, join := c.plane.pump(ctx, e)
	unwatch := onAbort(ctx, func() {
		now := time.Now()
		for _, conn := range e.pool {
			conn.SetWriteDeadline(now)
		}
	})
	var wg sync.WaitGroup
	for i, conn := range e.pool {
		wg.Add(1)
		go func(i int, conn net.Conn) {
			defer wg.Done()
			conn.SetWriteDeadline(e.deadline.Add(time.Second))
			s := &e.stripes[i]
			s.sent, s.alive = stripe(conn)
		}(i, conn)
	}
	wg.Wait()
	join()
	// Released (and, if it fired, finished) before evict compacts the
	// pool slice the watchdog walks.
	unwatch()
	for _, s := range e.stripes {
		sent += s.sent
	}
	return sent
}

// evict samples kernel TCP state off the surviving stripes at the
// epoch boundary, then closes the dead ones; the survivors stay warm
// for the next epoch. ColdStart closes them all — the paper's
// per-epoch restart.
func (c *Client) evict(e *epoch) (kernel *xfer.KernelStats) {
	if c.cfg.TCPInfo {
		kernel = c.sampleKernel(e)
	}
	alive := e.pool[:0]
	for i, conn := range e.pool {
		switch {
		case c.cfg.ColdStart:
			conn.Close()
		case !e.stripes[i].alive:
			conn.Close()
			if c.cfg.Obs != nil {
				c.cfg.Obs.StripeEvicted(c.Now(), fmt.Sprintf("stripe %d dead after pump", i))
			}
		default:
			alive = append(alive, conn)
		}
	}
	c.storePool(alive)
	return kernel
}

// report closes the epoch's books: the clock, the setup tallies, and
// the two throughputs.
func (c *Client) report(r xfer.Report, e *epoch) xfer.Report {
	r.End = c.cfg.ClockOffset + time.Since(c.start).Seconds()
	r.DegradedStreams = e.degraded
	r.Retries = e.retries
	r.Dials = e.dials
	r.ReusedStreams = e.reused
	r.Done = c.remaining.Load() <= 0
	elapsed := r.End - r.Start
	if elapsed > 0 {
		r.Throughput = r.Bytes / elapsed
	}
	if live := elapsed - r.DeadTime; live > 0 {
		r.BestCase = r.Bytes / live
	}
	return r
}

// sampleKernel reads TCP_INFO off every surviving data connection and
// aggregates the per-stripe samples, feeding the session's
// observability instruments along the way. The retransmit delta is
// epoch-over-epoch growth of the summed counters, clamped at zero
// (stripe eviction or redial resets a counter). Returns nil when no
// connection yields a sample (non-Linux builds, wrapped connections),
// so reports stay byte-identical where the sampler cannot run.
func (c *Client) sampleKernel(e *epoch) *xfer.KernelStats {
	var ks xfer.KernelStats
	var total int64
	now := c.Now()
	for i, conn := range e.pool {
		if !e.stripes[i].alive {
			continue
		}
		info, ok := tcpinfo.Sample(conn)
		if !ok {
			continue
		}
		sk := xfer.StripeKernel{
			RTT:          info.RTT.Seconds(),
			RTTVar:       info.RTTVar.Seconds(),
			Cwnd:         int(info.SndCwnd),
			DeliveryRate: float64(info.DeliveryRate),
			Retrans:      int64(info.TotalRetrans),
		}
		c.cfg.Obs.StripeKernel(now, len(ks.Stripes), sk.Cwnd, sk.RTT, sk.RTTVar, sk.DeliveryRate, sk.Retrans)
		total += sk.Retrans
		ks.Stripes = append(ks.Stripes, sk)
	}
	if len(ks.Stripes) == 0 {
		c.lastRetrans = 0
		return nil
	}
	if delta := total - c.lastRetrans; delta > 0 {
		ks.RetransDelta = delta
		c.cfg.Obs.KernelRetrans(delta)
	}
	c.lastRetrans = total
	return &ks
}

// Interface conformance check.
var _ xfer.Transferer = (*Client)(nil)
