package gridftp

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
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
	// retry up to maxBackoff. Zero selects 50 ms.
	Backoff time.Duration
}

// maxBackoff caps a retry's grown backoff, before its jitter.
const maxBackoff = time.Second

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
	// Dataset is the multi-file transfer: it is registered on the
	// server by a MANIFEST exchange, data connections carry per-file
	// segments behind FILE headers, file starts are pipelined up to the
	// epoch's pp depth (Params.PP), and accounting is per-file receiver
	// truth. Empty makes the transfer a dataset of one file of Bytes
	// bytes — 2^62 when unbounded — on the same plane. No size may be
	// negative. The client reads the sizes in place: the caller must
	// not change them while the client lives.
	Dataset dataset.Dataset
	// SourceDir switches the dataset's payload from synthesized zeros
	// to real file contents: manifest entry i is read from
	// SourceDir/dataset.Name(i). Validated up front — every file must
	// exist as a regular file of at least the manifest size. On Linux,
	// leases on unwrapped *net.TCPConn stripes are routed through
	// sendfile(2), so payload bytes never cross userspace; elsewhere —
	// under the dstune_nozerocopy build tag, or on wrapped connections —
	// a portable pread+writev pump produces the identical byte stream.
	// Requires a Dataset.
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
	// Requires an explicit Token (the server-side file table must be
	// the same one the original session fed).
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
	// events (StripeDialed, StripeEvicted) and keeps the session's
	// warm-pool size current. Per-epoch aggregates (dials, retries,
	// throughput) are recorded by the epoch engine from the epoch
	// Report, not here, so the two layers never double-count. Nil disables
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
	acked     int64 // server-confirmed useful bytes (receiver truth)

	// Warm data plane, guarded by mu so Stop can sweep it while a Run
	// is in flight. Only Run mutates it otherwise (Run is not
	// concurrent with itself).
	pool  []net.Conn    // live data stripes, surviving Run boundaries
	ctrl  net.Conn      // persistent control connection
	ctrlR *bufio.Reader // reader paired with ctrl

	lastRetrans int64 // summed stripe retransmit counters last sample

	// The data plane: stripes pull (file, offset, length) leases from q
	// and send them as FILE frames, an opener pipelines the per-file OPEN
	// handshakes on the control connection, and receiver truth is the
	// server's file table for the token (START, SETTLE, and RESYNC to
	// rebuild q from it). Touched only by NewClient and Run.
	q          *fileQueue
	src        *fileSource // file-backed payload (SourceDir); nil synthesizes zeros
	userspace  bool        // tests only: keep file-backed leases off sendfile(2), the reference path
	total      int64       // payload bytes across the dataset
	manifested bool        // MANIFEST (and the sink it asks for) registered on the server
	needResync bool        // q must be rebuilt from the server's file table
	resuming   bool        // a resumed session that has not yet resynced
	// expect is what the token's useful total will read once every byte
	// written so far is in: SETTLE waits for it (see settle). -1 until
	// the session's first START.
	expect   int64
	lastDone int          // the server's completed-file count last settle
	counts   serverCounts // reusable RESYNC parse state

	// Per epoch, what the stripes tally for the report.
	firstByte atomic.Int64 // nanoseconds from epoch start to the first payload byte
	sysCalls  atomic.Int64 // data-plane syscalls issued
}

// NewClient returns a client for cfg. It does not touch the network
// until the first Run.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("gridftp: address required")
	}
	datasetMode := cfg.Dataset.Count() > 0
	if datasetMode {
		for i, size := range cfg.Dataset.Sizes {
			if size < 0 {
				return nil, fmt.Errorf("gridftp: dataset file %d has negative size %d", i, size)
			}
		}
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
	if err := cfg.Shaper.validate(); err != nil {
		return nil, err
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
	if !datasetMode {
		// A bulk transfer is a dataset of one file.
		size := unboundedBytes
		if cfg.Bytes < float64(unboundedBytes) {
			size = int64(cfg.Bytes)
		}
		cfg.Dataset = dataset.Uniform(1, size)
	}
	c := &Client{
		cfg:   cfg,
		token: cfg.Token,
		rng:   rand.New(rand.NewSource(int64(cfg.Seed))),
		q:     newFileQueue(cfg.Dataset),
		total: cfg.Dataset.TotalBytes(),
		// A resumed transfer rebuilds its work queue from the server's
		// file table before the first pump, restarting at file/offset
		// granularity.
		needResync: cfg.AckedBytes > 0,
		resuming:   cfg.AckedBytes > 0,
		expect:     -1,
	}
	c.stopped, c.stop = context.WithCancelCause(context.Background())
	c.confirm(int64(cfg.AckedBytes))
	if cfg.SourceDir != "" {
		var err error
		if c.src, err = newFileSource(cfg.SourceDir, cfg.Dataset); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// unboundedBytes is what an unbounded transfer (Bytes at or past it)
// writes: the size of its one file, and its remaining budget.
const unboundedBytes = int64(1) << 62

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
// the server still holds the token's file table.
func (c *Client) Snapshot() xfer.TransferState {
	unbounded := c.cfg.Bytes >= float64(unboundedBytes)
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
// transfer's token on the server (a best-effort CLOSE exchange), so
// long-lived servers don't accumulate dead file tables.
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
		return c.send(conn, br, command(cmd), oneLine(cmd, "OK", new(string)))
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

// validate reports a Rate or Quad that is negative or not finite: a
// negative Quad turns the per-connection rate negative or infinite at
// some connection count, and a NaN one makes it NaN. A nil Shaper is
// valid.
func (s *Shaper) validate() error {
	bad := func(v float64) bool { return !(v >= 0) || math.IsInf(v, 1) }
	switch {
	case s == nil:
		return nil
	case bad(s.Rate):
		return fmt.Errorf("gridftp: shaper Rate %v is not a finite non-negative number", s.Rate)
	case bad(s.Quad):
		return fmt.Errorf("gridftp: shaper Quad %v is not a finite non-negative number", s.Quad)
	}
	return nil
}

// backoff returns the jittered sleep before retry k (1-based): the
// configured base doubled per retry, capped, scaled by a seeded
// random factor in [0.5, 1.5).
func (c *Client) backoff(k int) time.Duration {
	d := c.cfg.Retry.Backoff
	for i := 1; i < k && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
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

// send writes a command on conn — write renders it — and hands the
// response to read, all under one DialTimeout deadline.
func (c *Client) send(conn net.Conn, br *bufio.Reader, write func(io.Writer) error, read func(*bufio.Reader) error) error {
	conn.SetDeadline(time.Now().Add(c.cfg.DialTimeout))
	if err := write(conn); err != nil {
		return err
	}
	if err := read(br); err != nil {
		return err
	}
	conn.SetDeadline(time.Time{})
	return nil
}

// command returns send's writer of the one-line command cmd.
func command(cmd string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, cmd+"\n")
		return err
	}
}

// oneLine returns send's response reader for the one-line answers:
// the line must start with wantPrefix and is stored in *resp. cmd is
// the command's verb line, which an unexpected answer's error quotes.
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
// transient failures per the retry config; write renders the command
// and read consumes the response (one line for most verbs, a block for
// RESYNC). A failed exchange discards the connection so the next
// attempt re-dials.
func (c *Client) roundTrip(ctx context.Context, t *cost, write func(io.Writer) error, read func(*bufio.Reader) error) error {
	return c.retry(ctx, t, func() error {
		conn, br, err := c.ctrlConn(t)
		if err != nil {
			return err
		}
		if err = c.send(conn, br, write, read); err != nil {
			c.dropCtrl(conn)
		}
		return err
	})
}

// ServerReceived asks the server how many useful bytes it holds for
// this transfer's token: a SETTLE that expects nothing, so it is
// answered at once, on the persistent control connection.
func (c *Client) ServerReceived() (int64, error) {
	_, useful, err := c.settleExchange(c.stopped, new(cost), 0)
	return useful, err
}

// settleExchange sends SETTLE <token> <expect> and parses the
// SETTLED <files> <useful> answer — exactly two numbers: an older
// server's three (its aggregate counter first) are a protocol error.
func (c *Client) settleExchange(ctx context.Context, t *cost, expect int64) (done int, useful int64, err error) {
	cmd := fmt.Sprintf("SETTLE %s %d", c.token, expect)
	err = c.roundTrip(ctx, t, command(cmd), func(br *bufio.Reader) error {
		var resp string
		if err := oneLine(cmd, "SETTLED ", &resp)(br); err != nil {
			return err
		}
		if _, err := fmt.Sscanf(resp+"\n", "SETTLED %d %d\n", &done, &useful); err != nil {
			return fmt.Errorf("%w %q", errSettledShape, resp)
		}
		return nil
	})
	return done, useful, err
}

// errSettledShape is a SETTLED answer of the wrong shape — an older
// gridftpd's three numbers. Unlike a refused SETTLE, which costs one
// epoch its receiver truth, it recurs every epoch, so it ends the
// session.
var errSettledShape = fmt.Errorf("%w: bad SETTLE response", ErrProtocol)

// confirm records useful as the server-confirmed byte count, and the
// budget left, and returns the count it replaces.
func (c *Client) confirm(useful int64) (prev int64) {
	c.mu.Lock()
	prev, c.acked = c.acked, useful
	c.mu.Unlock()
	c.remaining.Store(c.total - useful)
	return prev
}

// dialData establishes one data connection (dial plus the DATAF
// header), retrying transient failures.
func (c *Client) dialData(ctx context.Context, t *cost) (data net.Conn, err error) {
	err = c.retry(ctx, t, func() error {
		t.dials++
		conn, err := c.cfg.Dialer("tcp", c.cfg.Addr, c.cfg.DialTimeout)
		if err != nil {
			return err
		}
		if _, err = fmt.Fprintf(conn, "DATAF %s\n", c.token); err != nil {
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

	// pool is the stripe set, owned by the epoch from takePool to
	// storePool; stripes[i] is what pool[i]'s pump goroutine reported
	// (each goroutine writes only its own slot).
	pool    []net.Conn
	stripes []stripeResult

	// The control connection arm secured for the opener.
	ctrl  net.Conn
	ctrlR *bufio.Reader
}

// stripeResult is what one stripe's pump reported: the payload bytes
// it wrote and whether its connection is still usable.
type stripeResult struct {
	sent  int64
	alive bool
}

// Run implements xfer.Transferer. The epoch is wall-clock seconds,
// spent in six phases: arm (START on the control connection, then
// the manifest, a resync when one is owed, and the opener's control
// connection),
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
	if err := c.settle(c.stopped, e, sent, &r); errors.Is(err, errSettledShape) {
		return xfer.Report{}, fmt.Errorf("gridftp: settle: %w", err)
	}
	return c.report(r, e), caller.Err()
}

// arm re-arms the server for the epoch — one START on the control
// connection, whether the stripe is cold (the restart analog) or warm —
// registers the manifest once per session (the server keeps it under
// the token until the idle TTL; the sink request rides on it), rebuilds
// the work queue from receiver truth when resuming or after losses, and
// secures the control connection the opener will own during the pump.
//
// START answers the token's useful total, and a session's first arm
// takes it as the expectation: nothing of this session is in flight
// yet, the one moment it is exact, also for a resumed token that holds
// whatever its killed session wrote after the checkpoint. A START that
// finds no token — the server expired or lost it, and everything it
// confirmed with it — starts the account over: the manifest is
// registered again and, if the session had registered one, the queue is
// rebuilt from the new, empty table before anything is sent.
func (c *Client) arm(ctx context.Context, e *epoch) error {
	var resp string
	var held int64
	err := c.roundTrip(ctx, &e.cost, command("START "+c.token), func(br *bufio.Reader) (err error) {
		if resp, err = readLine(br); err != nil || resp == "NONE" {
			return err
		}
		if _, serr := fmt.Sscanf(resp+"\n", "OK %d\n", &held); serr != nil {
			return fmt.Errorf("%w: bad START response %q", ErrProtocol, resp)
		}
		return nil
	})
	switch {
	case err != nil:
		return fmt.Errorf("gridftp: start: %w", err)
	case resp == "NONE":
		c.needResync = c.needResync || c.manifested
		c.manifested = false
		c.expect, c.lastDone = 0, 0
		c.confirm(0)
	case c.expect < 0:
		c.expect = held
	}
	if !c.manifested {
		if err := c.roundTrip(ctx, &e.cost, c.writeManifest, oneLine(c.manifestLine(), "OK", new(string))); err != nil {
			return fmt.Errorf("gridftp: manifest: %w", err)
		}
		c.manifested = true
	}
	if c.needResync {
		// Quiesced here: no leases are in flight between epochs. A
		// failed resync is not fatal — the queue keeps its local view
		// (duplicates are clamped server-side) and a later epoch
		// retries — except to a resumed session, which sends nothing
		// before it knows what the server holds.
		useful, err := c.resync(ctx, e)
		acked := int64(c.cfg.AckedBytes)
		switch ierr := interrupted(ctx); {
		case err == nil && c.resuming && held >= acked && useful < acked:
			return errNotResumable
		case err == nil:
			c.needResync, c.resuming = false, false
		case ierr != nil:
			return ierr
		case c.resuming:
			return fmt.Errorf("gridftp: resync: %w", err)
		}
	}
	if e.ctrl, e.ctrlR, err = c.ctrlConn(&e.cost); err != nil {
		return fmt.Errorf("gridftp: control: %w", err)
	}
	return nil
}

// settle is the one round trip in which an epoch learns receiver
// truth: it tells the server the useful total to wait for — expect
// plus the bytes the stripes just wrote — and the server answers when
// its file table holds it, or when the difference is not coming (see
// Server.serveSettle). The epoch's volume is the growth of that
// duplicate-free total (resends past a file's size count toward
// nothing), its files the growth of the completed-file count. A failed
// exchange leaves the report with the sender's count.
//
// The answer is an instant's reading, and expect must be where the
// total ends up or every later settle inherits the error. Bytes written
// to a stripe that is still alive do arrive, so an epoch in which none
// died moves expect on by exactly what it wrote, whatever the answer
// said: a total cut short by a spuriously quiet 5 ms (a drain starved
// of CPU) is late, and the next settle waits for it. Only where the
// expectation is known to be off — a stripe died with bytes in its
// socket buffer, or the total is past it — is the answer itself the
// new starting point; a RESYNC, which rebuilds the queue from the
// table, re-bases it too.
//
// A SETTLED of the wrong shape (an older gridftpd's) is returned and
// ends the session: its epochs would otherwise carry the sender's count
// forever and a bounded transfer never finish.
func (c *Client) settle(ctx context.Context, e *epoch, sent int64, r *xfer.Report) error {
	r.FirstByteLag = time.Duration(c.firstByte.Load()).Seconds()
	r.Syscalls = c.sysCalls.Load()
	want := c.expect + sent
	c.expect = want
	done, useful, err := c.settleExchange(ctx, &e.cost, want)
	if err != nil {
		return err
	}
	if useful > want || slices.ContainsFunc(e.stripes, func(s stripeResult) bool { return !s.alive }) {
		c.expect = useful
	}
	// A total below the last one means the server lost the token during
	// the epoch (idle-TTL expiry or restart): the epoch keeps the
	// sender's count, and the next START, finding no token, starts the
	// account over.
	if prev := c.confirm(useful); useful >= prev {
		r.Bytes = float64(useful - prev)
	}
	r.Files = max(done-c.lastDone, 0)
	c.lastDone = done
	if done < len(c.q.sizes) && c.q.drained() {
		// Every byte was leased but the server still misses some (lost
		// in dead stripes' socket buffers): requeue the deficits from
		// receiver truth next epoch.
		c.needResync = true
	}
	return nil
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

// pumpEpoch starts the opener and runs a filePump over the shared
// queue on every stripe until the epoch deadline, and returns the bytes
// written. It waits for the opener's ACK drain (bounded by its read
// deadline), so the control connection is quiet again before settle's
// exchange. An interrupt (ctx cancel or Stop) expires every stream's
// write deadline, so blocked writes fail immediately and each pump
// returns its unsent budget.
func (c *Client) pumpEpoch(ctx context.Context, e *epoch) (sent int64) {
	e.deadline = time.Now().Add(e.length)
	e.rate = c.cfg.Shaper.perConnRate(len(e.pool))
	e.stripes = make([]stripeResult, len(e.pool))
	c.firstByte.Store(0)
	c.sysCalls.Store(0)
	opened := make(chan struct{})
	go func() {
		defer close(opened)
		c.opener(ctx, e)
	}()
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
			conn.SetWriteDeadline(e.deadline.Add(writeSlack))
			pio := c.newPumpIO(conn)
			s := &e.stripes[i]
			s.sent, s.alive = filePump(conn, c.q, pio, e.rate, e.deadline, ctx.Done(), &c.firstByte, e.began)
			c.sysCalls.Add(pio.syscalls())
		}(i, conn)
	}
	wg.Wait()
	<-opened
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
