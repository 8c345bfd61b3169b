// Package gridftp provides a real-socket substitute for the paper's
// globus-url-copy: a striped memory-to-memory transfer protocol over
// plain TCP, exposing the same xfer.Transferer interface the tuners
// drive against the simulator.
//
// The protocol is deliberately minimal (the paper's transfers are
// /dev/zero to /dev/null):
//
//	client                         server
//	------ control connection (persistent) ----
//	START <token>\n                (arms an epoch, cold or warm; creates
//	                               OK <bytes>\n   or touches the token and
//	                                says what it holds now)
//	------ data connections (channels) --------
//	DATA <token>\n                 (discards, counting)
//	<raw bytes until close>
//	------ same control connection ------------
//	SETTLE <token> <expect>\n      (end of epoch: answered once the
//	                               SETTLED <bytes> <files> <useful>\n
//	                                count reaches expect or stops moving;
//	                                expect 0 reads the count, now)
//	CLOSE <token>\n                (releases the token's counter)
//	                               OK\n
//
// The sender writes 1 MiB at a time from one shared zero buffer (64 KiB
// when a Shaper paces it, so the token bucket is consulted often enough
// to shape anything), and on Linux the receiver drops the payload in
// the kernel with recv(MSG_TRUNC), so the sender's copy into the socket
// is the stream's only memory pass. A wrapped connection, another
// platform or the dstune_nozerocopy build tag gets the portable copying
// drain instead, with identical accounting.
//
// # File plane
//
// When ClientConfig.Dataset is set, the same connections carry a
// dataset-aware framed protocol instead of the raw byte stream, so
// pipelining depth (pp) becomes a third tunable dimension alongside
// nc and np:
//
//	------ control connection ------------------
//	MANIFEST <token> <count> [SINK]\n  (then <count> size lines; SINK
//	<size>\n ...                   also persists the payloads under the
//	                               OK\n           server's sink directory)
//	OPEN <token> <idx>\n           (<= pp in flight; ACK arrives
//	                               ACK <idx>\n     after the per-file latency)
//	RESYNC <token>\n               (per-file progress dump: one line
//	                               F <idx> <got>\n ...  per file with bytes)
//	                               END\n
//	------ data connections --------------------
//	DATAF <token>\n
//	FILE <idx> <off> <len>\n<len payload bytes>  (repeated frames)
//
// Those six verbs are the control protocol; anything else is answered
// ERR unknown command. START and MANIFEST are the only verbs that
// create a token on the server. Data connections (DATA, DATAF) only
// look theirs up and are dropped when it is unknown, so a stripe whose
// header arrives after CLOSE cannot resurrect a released counter; every
// epoch sends START before it dials, which also re-creates a token the
// idle TTL expired. A dataset transfer reads its per-file truth — the
// completed-file count and the duplicate-free bytes — off the same
// SETTLE answer.
//
// The server credits each file with min(received, size) so duplicate
// retransmissions never inflate goodput, and an epoch's Report.Bytes
// is the delta of that per-file "useful" sum — receiver truth at
// file granularity. OPEN admission is what pp buys: each file start
// costs one server-side latency (SetFileLatency in tests, real
// metadata lookups in the wild), and keeping pp OPENs outstanding
// overlaps those waits. Mid-epoch failures resume at file/offset
// granularity: RESYNC rebuilds the client's work queue from the
// server's per-file progress, so a restarted session re-sends only
// unacknowledged tails. An empty manifest leaves the protocol
// byte-identical to the bulk stream above.
//
// # Warm data plane
//
// Data connections form a persistent stripe pool that survives Run
// boundaries. The first epoch performs the START handshake and dials
// the full stripe; a later epoch with the same stream count performs
// zero dials — the same START exchange on the persistent control
// connection re-arms it — and a ±k change in stream count dials or
// retires only the k-connection delta. Stripes that die mid-epoch
// (resets, server failure) are evicted from the pool and only the
// missing delta is re-dialed, with the usual retry budget, at the
// next epoch. Report.Dials and Report.ReusedStreams account the
// split, so DeadTime is attributable to cold setup. Setting
// ClientConfig.ColdStart restores the paper-faithful behavior — a
// fresh stripe per epoch, the restart overhead the paper measures —
// and is the baseline BenchmarkEpochSetup compares against.
//
// The epoch's setup time (control exchange plus any delta dialing,
// including retry backoffs) is reported as DeadTime. An optional
// Shaper imposes per-connection rate limits and a contention penalty
// that grows with the connection count, recreating on loopback the
// interior optimum a WAN endpoint exhibits, so the tuners have
// something real to find.
//
// # Error taxonomy and retry semantics
//
// Production links fail in two distinct ways, and the client keeps
// them apart:
//
//   - Transient errors — dial timeouts, refused or reset connections,
//     streams that end unexpectedly — are network weather. Connection
//     setup retries them per ClientConfig.Retry with exponential,
//     seeded-jitter backoff. If some data dials still fail after
//     retries, the epoch runs degraded on the surviving streams
//     (Report.DegradedStreams counts the missing ones) as long as at
//     least ClientConfig.MinStreams survive. Only when an epoch cannot
//     proceed at all does Run fail, and then with an error matching
//     xfer.ErrTransient so callers (tuner runners) can record a
//     zero-throughput epoch and keep tuning.
//   - Fatal errors — protocol violations (ErrProtocol), invalid
//     parameters, a stopped transfer — are bugs or misuse. They are
//     never retried and never marked transient.
//
// A mid-epoch stream failure is not an error at all: the pump ends
// that stream, returns its unsent budget, and the epoch reports what
// the server actually received: every epoch ends with one SETTLE round
// trip, which tells the server the count it should reach — where the
// session's first START found the counter plus everything written to
// stripes that are still alive since — and is answered as soon as it
// has, or once the counter has not moved for 5 ms (the rest died with a
// stripe), or after 500 ms. Throughput is therefore receiver truth
// rather than bytes parked in kernel socket buffers, learned without
// polling. Only an epoch that lost a stripe takes a short answer as
// loss and returns the difference to the budget; with every stripe
// alive a short answer means late bytes, which the next settle waits
// for.
package gridftp

import (
	"errors"
	"io"
	"math"
	"net"
	"sync/atomic"
	"syscall"
	"time"

	"dstune/internal/xfer"
)

// chunkSize is the pacing quantum of the shaped pump: the bytes one
// write moves between two looks at the token bucket. It stays small
// because the Shaper's per-connection rates are a few MB/s — a 1 MiB
// write would be a burst of a large fraction of a second, and the
// interior peak the Quad term shapes would no longer show on the wire
// (TestQuadShaperInteriorPeakOnWire). The unshaped pump has no bucket
// to look at and writes fileChunk.
const chunkSize = 64 << 10

// leaseQuantum is the byte-lease granularity of the pump: each stream
// claims this much of the shared budget per refill, so the shared
// counter sees one CAS per quantum instead of one per write.
const leaseQuantum = 4 << 20

// Shaper emulates endpoint contention on a loopback link. The
// effective per-connection rate is
//
//	Rate / (1 + Quad * n^2)
//
// for n total connections, so aggregate throughput n*Rate/(1+Quad*n^2)
// peaks at n = 1/sqrt(Quad) and declines beyond it — the shape of the
// paper's Figure 1.
type Shaper struct {
	// Rate is the per-connection byte rate with no contention; zero
	// means unshaped.
	Rate float64
	// Quad is the contention coefficient; zero means no contention
	// penalty.
	Quad float64
}

// perConnRate returns the shaped per-connection rate for n total
// connections, or +Inf when unshaped.
func (s *Shaper) perConnRate(n int) float64 {
	if s == nil || s.Rate <= 0 {
		return math.Inf(1)
	}
	return s.Rate / (1 + s.Quad*float64(n)*float64(n))
}

// Optimum returns the connection count at which the shaped aggregate
// peaks (at least 1), or 0 when the shaper imposes no interior
// optimum.
func (s *Shaper) Optimum() int {
	if s == nil || s.Rate <= 0 || s.Quad <= 0 {
		return 0
	}
	n := int(math.Round(1 / math.Sqrt(s.Quad)))
	if n < 1 {
		n = 1
	}
	return n
}

// ErrProtocol reports a malformed exchange on a control or data
// connection.
var ErrProtocol = errors.New("gridftp: protocol error")

// transientNetErr reports whether err is a plausibly transient
// network failure: timeouts, refused/reset/aborted connections, or
// streams that ended unexpectedly.
func transientNetErr(err error) bool {
	if err == nil {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.ECONNABORTED) ||
		errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, syscall.ETIMEDOUT) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed)
}

// classify marks network-weather errors as xfer.ErrTransient, leaving
// protocol violations and other fatal errors unmarked.
func classify(err error) error {
	if err == nil || errors.Is(err, ErrProtocol) {
		return err
	}
	if transientNetErr(err) {
		return xfer.Transient(err)
	}
	return err
}

// setSockBuf sizes conn's kernel socket buffers to n bytes; n <= 0
// keeps the OS default. Wrapped connections (fault injectors) that do
// not expose the setters are left alone.
func setSockBuf(conn net.Conn, n int) {
	if n <= 0 {
		return
	}
	if rb, ok := conn.(interface{ SetReadBuffer(int) error }); ok {
		rb.SetReadBuffer(n)
	}
	if wb, ok := conn.(interface{ SetWriteBuffer(int) error }); ok {
		wb.SetWriteBuffer(n)
	}
}

// lease claims up to quantum bytes from the shared budget with a
// single CAS; it returns 0 when the budget is exhausted.
func lease(budget *atomic.Int64, quantum int64) int64 {
	for {
		left := budget.Load()
		if left <= 0 {
			return 0
		}
		take := quantum
		if left < take {
			take = left
		}
		if budget.CompareAndSwap(left, left-take) {
			return take
		}
	}
}

// pump writes zeros to w at the given rate until the deadline, the
// shared byte budget runs out, a write fails, or abort is closed. It
// returns the bytes written and whether the stream is still usable
// (false after a write error that is not a deadline expiry — the
// stream is dead and must be evicted from the pool).
//
// The shared budget is consumed through per-stream byte leases of
// leaseQuantum bytes, so the steady-state path performs no shared CAS
// per write; the unspent lease remainder is refunded on every exit
// path. Unshaped, a write is fileChunk bytes — the framed pump's size,
// a sixteenth of the syscalls 64 KiB cost — and the clock is read once
// per write, which keeps the deadline overshoot at one write; shaped, it
// is the chunkSize pacing quantum.
func pump(w io.Writer, rate float64, deadline time.Time, budget *atomic.Int64, abort <-chan struct{}) (sent int64, alive bool) {
	var leased int64 // unspent bytes of the current lease
	defer func() {
		if leased > 0 {
			budget.Add(leased)
		}
	}()
	start := time.Now()
	shaped := !math.IsInf(rate, 1)
	quantum := int64(fileChunk)
	if shaped {
		quantum = chunkSize
	}
	for {
		select {
		case <-abort:
			return sent, true
		default:
		}
		if time.Now().After(deadline) {
			return sent, true
		}
		if leased == 0 {
			if leased = lease(budget, leaseQuantum); leased == 0 {
				return sent, true
			}
		}
		n, err := w.Write(fileZeros[:min(quantum, leased)])
		sent += int64(n)
		leased -= int64(n)
		if err != nil {
			// A deadline expiry (epoch end, or the abort watchdog
			// expiring the write) leaves the stream usable; any other
			// write error is a dead stripe.
			var ne net.Error
			return sent, errors.As(err, &ne) && ne.Timeout()
		}
		if shaped {
			pace(rate, sent, start, deadline, abort)
		}
	}
}
