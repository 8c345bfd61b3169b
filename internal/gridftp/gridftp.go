// Package gridftp provides a real-socket substitute for the paper's
// globus-url-copy: a striped transfer protocol over plain TCP, exposing
// the same xfer.Transferer interface the tuners drive against the
// simulator.
//
// Every transfer is a dataset. The paper's, /dev/zero to /dev/null, is
// one file: a client given Bytes and no Dataset registers a manifest of
// one file of that size (2^62 bytes when unbounded), so a bulk stream
// and a many-file dataset share one data handshake, one pump, one
// server drain and one receiver truth. Pipelining depth (pp) is a third
// tunable dimension alongside nc and np:
//
//	client                         server
//	------ control connection (persistent) ----
//	START <token>\n                (arms an epoch, cold or warm: touches
//	                               OK <useful>\n  the token and says the
//	                               NONE\n          duplicate-free total it
//	                                holds, or that it holds no such token)
//	MANIFEST <token> <count> [SINK]\n  (creates the token, the only verb
//	<size>\n ...                   that does; then <count> size lines;
//	                               OK\n           SINK also persists the
//	                                payloads under the sink directory)
//	OPEN <token> <idx>\n           (<= pp in flight; ACK arrives
//	                               ACK <idx>\n     after the per-file latency)
//	RESYNC <token>\n               (per-file progress dump: one line
//	                               F <idx> <got>\n ...  per file with bytes)
//	                               END\n
//	------ data connections (channels) --------
//	DATAF <token>\n
//	FILE <idx> <off> <len>\n<len payload bytes>  (repeated frames)
//	------ same control connection ------------
//	SETTLE <token> <expect>\n      (end of epoch: answered once the
//	                               SETTLED <files> <useful>\n
//	                                useful total reaches expect or stops
//	                                moving; expect 0 reads it, now)
//	CLOSE <token>\n                (releases the token's file table)
//	                               OK\n
//
// Those six verbs are the control protocol, and DATAF the one data
// handshake; anything else — the DATA header of the retired raw byte
// stream among it — is answered ERR unknown command. A token on the
// server is its file table, and MANIFEST is the only verb that creates
// one. A data connection only looks its token up — at its header and at
// every frame — and is dropped when it is unknown, so a stripe whose
// header arrives after CLOSE cannot resurrect a released table. Every
// epoch sends START before it dials; a NONE — the idle TTL expired the
// token, or the server restarted — makes the client register its
// manifest again and rebuild its queue from the new, empty table.
//
// The sender leases up to 4 MiB of a file at a time and writes it 1 MiB
// at a time from one shared zero buffer, the frame header riding the
// first write, and the frames of small files share one writev; when a
// Shaper paces it, a write is at most 64 KiB, so the token bucket is
// consulted often enough to shape anything. On Linux the receiver reads
// each frame header through a reader one line long and drops the rest
// of the payload in the kernel with recv(MSG_TRUNC), so beyond under a
// line's worth per frame the sender's copy into the socket is the
// stream's only memory pass, for a small file as for a 4 MiB lease. A
// wrapped connection, another platform or the dstune_nozerocopy build
// tag gets the portable copying drain instead, which reads 32 KiB
// ahead, with identical accounting. The server batches its control
// answers, so k pipelined OPENs cost it one read and one write.
//
// The server credits each file with min(received, size) so duplicate
// retransmissions never inflate goodput, and the sum of those per-file
// "useful" bytes is the one count it keeps: START and SETTLE answer it,
// Server.Received reads it, and an epoch's Report.Bytes is its delta,
// read off the SETTLE answer with the completed-file count — receiver
// truth at file granularity. OPEN admission is what pp buys: each file
// start costs one server-side latency (SetFileLatency in tests, real
// metadata lookups in the wild), and keeping pp OPENs outstanding
// overlaps those waits. Mid-epoch failures resume at file/offset
// granularity: RESYNC rebuilds the client's work queue from the
// server's per-file progress, so a restarted session re-sends only
// unacknowledged tails.
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
// that stream, puts the unsent rest of its lease back in the work
// queue, and the epoch reports what the server actually received:
// every epoch ends with one SETTLE round trip, which tells the server
// the useful total it should reach — what the session's first START or
// the last RESYNC found, plus everything written since to stripes that
// are still alive — and is answered as soon as the table holds it, or
// once the total has not moved for 5 ms (the rest died with a stripe),
// or after 500 ms.
// Throughput is therefore receiver truth rather than bytes parked in
// kernel socket buffers, learned without polling. A short answer is
// never refunded to a budget: what the server misses once every byte
// is leased, RESYNC's per-file counts put back in the queue, and a late
// byte is credited by the settle that finds it.
package gridftp

import (
	"errors"
	"io"
	"math"
	"net"
	"syscall"

	"dstune/internal/xfer"
)

// chunkSize is the shaped pump's lease and write: the bytes one frame
// moves between two looks at the token bucket. It stays small because
// the Shaper's per-connection rates are a few MB/s — a 1 MiB write
// would be a burst of a large fraction of a second, and the interior
// peak the Quad term shapes would no longer show on the wire
// (TestQuadShaperInteriorPeakOnWire). The unshaped pump has no bucket
// to look at and writes fileChunk.
const chunkSize = 64 << 10

// leaseQuantum is the unshaped pump's lease: the most of one file a
// stream claims from the work queue per refill, so the queue's lock is
// taken once per quantum instead of once per write.
const leaseQuantum = 4 << 20

// Shaper emulates endpoint contention on a loopback link. The
// effective per-connection rate is
//
//	Rate / (1 + Quad * n^2)
//
// for n total connections, so aggregate throughput n*Rate/(1+Quad*n^2)
// peaks at n = 1/sqrt(Quad) and declines beyond it — the shape of the
// paper's Figure 1. NewClient refuses a Rate or Quad that is negative
// or not finite.
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
