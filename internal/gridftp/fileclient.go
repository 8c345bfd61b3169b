package gridftp

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dstune/internal/dataset"
	"dstune/internal/xfer"
)

// errProtocolf wraps ErrProtocol with a formatted detail message.
func errProtocolf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrProtocol}, args...)...)
}

// fileChunk is the payload write size of both pumps when nothing paces
// them. On the file plane it lets a typical small file move in two
// syscalls — one frame header, one payload write — keeping the
// per-file syscall count flat (BenchmarkManyFilesEpoch pins it); on the
// bulk stream it is what makes a byte cost what a framed one does.
const fileChunk = 1 << 20

// fileZeros is the one payload buffer both pumps slice (the /dev/zero
// stand-in).
var fileZeros = make([]byte, fileChunk)

// ackSlack bounds how long the opener waits for the ACKs of OPENs
// still outstanding when the epoch deadline passes, so the control
// connection is drained (and reusable for SETTLE) shortly after the
// epoch ends.
const ackSlack = 2 * time.Second

// fileQueue is the client-side file-segment work queue that replaces
// the anonymous byte budget in dataset mode. Files become leasable
// only after admission (the OPEN/ACK handshake the opener performs up
// to pp deep); stripes then pull (file, offset, length) leases of at
// most leaseQuantum bytes. The unsent remainder of a failed lease is
// requeued immediately; bytes lost in a dead stripe's socket buffer
// are recovered by resyncing against the server's per-file counters.
type fileQueue struct {
	mu       sync.Mutex
	sizes    []int64
	rem      []int64 // bytes not yet leased, per file
	started  []bool  // admitted (or known to the server from a resume)
	inReady  []bool  // membership in ready
	ready    []int32 // admitted files with rem > 0, leased LIFO
	nextOpen int     // admission cursor
	unleased int64   // sum of rem across all files
}

// newFileQueue builds the queue for d. Zero-length files need no
// bytes and are never admitted.
func newFileQueue(d dataset.Dataset) *fileQueue {
	n := d.Count()
	q := &fileQueue{
		sizes:   make([]int64, n),
		rem:     make([]int64, n),
		started: make([]bool, n),
		inReady: make([]bool, n),
		ready:   make([]int32, 0, n),
	}
	for i, f := range d.Files {
		if f.Size > 0 {
			q.sizes[i] = f.Size
			q.rem[i] = f.Size
			q.unleased += f.Size
		}
	}
	return q
}

// next leases up to quantum bytes of the next admitted file. n == 0
// with wait true means nothing is admitted right now but more bytes
// remain (the pump should idle briefly); wait false means every byte
// has been leased and the pump is done for this epoch.
func (q *fileQueue) next(quantum int64) (idx int, off, n int64, wait bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.ready) > 0 {
		i := q.ready[len(q.ready)-1]
		if q.rem[i] <= 0 {
			q.ready = q.ready[:len(q.ready)-1]
			q.inReady[i] = false
			continue
		}
		take := q.rem[i]
		if take > quantum {
			take = quantum
		}
		off = q.sizes[i] - q.rem[i]
		q.rem[i] -= take
		q.unleased -= take
		if q.rem[i] <= 0 {
			q.ready = q.ready[:len(q.ready)-1]
			q.inReady[i] = false
		}
		return int(i), off, take, false
	}
	return 0, 0, 0, q.unleased > 0
}

// requeue returns n unsent bytes of file idx to the queue (a lease
// cut short by a dead stripe).
func (q *fileQueue) requeue(idx int, n int64) {
	if n <= 0 {
		return
	}
	q.mu.Lock()
	q.rem[idx] += n
	q.unleased += n
	if q.started[idx] && !q.inReady[idx] {
		q.ready = append(q.ready, int32(idx))
		q.inReady[idx] = true
	}
	q.mu.Unlock()
}

// admit marks file idx admitted (its OPEN was ACKed) and leasable.
func (q *fileQueue) admit(idx int) {
	if idx < 0 {
		return
	}
	q.mu.Lock()
	if idx < len(q.sizes) && !q.started[idx] {
		q.started[idx] = true
		if q.rem[idx] > 0 && !q.inReady[idx] {
			q.ready = append(q.ready, int32(idx))
			q.inReady[idx] = true
		}
	}
	q.mu.Unlock()
}

// nextToOpen returns the next file index the opener should admit, or
// ok false when every file has been opened. Zero-length and
// already-started files are skipped.
func (q *fileQueue) nextToOpen() (idx int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.nextOpen < len(q.sizes) {
		i := q.nextOpen
		q.nextOpen++
		if q.sizes[i] > 0 && !q.started[i] {
			return i, true
		}
	}
	return 0, false
}

// drained reports whether every byte has been leased.
func (q *fileQueue) drained() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.unleased == 0
}

// applyServer resynchronizes the queue against the server's per-file
// received counts (got, full-length): each file's unleased remainder
// becomes exactly the bytes the server still misses, so deficits from
// bytes lost in dead stripes' socket buffers are requeued and
// duplicate work is dropped. Files the server has bytes for are
// marked started — a resumed session needs no fresh OPEN for them.
// Callers must be quiesced: no leases in flight.
func (q *fileQueue) applyServer(got []int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.ready = q.ready[:0]
	q.unleased = 0
	for i := range q.sizes {
		g := got[i]
		if g > q.sizes[i] {
			g = q.sizes[i]
		}
		if got[i] > 0 {
			q.started[i] = true
		}
		q.rem[i] = q.sizes[i] - g
		q.unleased += q.rem[i]
		q.inReady[i] = q.started[i] && q.rem[i] > 0
		if q.inReady[i] {
			q.ready = append(q.ready, int32(i))
		}
	}
}

// appendFrameHeader appends "FILE <idx> <off> <len>\n" to b without
// allocating.
func appendFrameHeader(b []byte, idx int, off, n int64) []byte {
	b = append(b, "FILE "...)
	b = strconv.AppendInt(b, int64(idx), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, off, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, n, 10)
	b = append(b, '\n')
	return b
}

// zcLeaseQuantum is the lease size of the zero-copy source pump. A
// zero-copy lease costs a constant ~6 syscalls (fadvise, cork, header
// write, seek, sendfile, uncork) regardless of size, so leases an
// order of magnitude past
// the userspace quantum push the syscalls/GiB floor down for free;
// requeue granularity is unaffected because a dead stripe's
// kernel-buffered remainder is recovered through RESYNC either way.
const zcLeaseQuantum = 32 << 20

// zcMinSegment is the smallest lease routed through sendfile(2); below
// it the userspace writev of header plus payload wins (one syscall
// against the kernel path's three).
const zcMinSegment = 256 << 10

// pumpIO is one stripe's I/O context for filePump: the payload source
// (nil synthesizes zeros), the zero-copy routing decision, and the
// write-side syscall tally the epoch report surfaces (source-side
// reads tally in src). Owned by a single pump goroutine.
type pumpIO struct {
	src    *stripeSource
	tcp    *net.TCPConn // non-nil when conn is an unwrapped TCP connection
	zc     bool         // route big leases through sendfile(2)
	calls  int64        // write/writev syscalls issued
	vec    net.Buffers
	vecbuf [2][]byte // backing array for vec, so writev costs no allocation
}

// newPumpIO builds conn's pump context: zero-copy engages only when
// the build supports it, a file source exists, and the connection is
// an unwrapped *net.TCPConn (fault-injecting wrappers fall back to the
// userspace path automatically).
func (f *framedPlane) newPumpIO(conn net.Conn) *pumpIO {
	pio := &pumpIO{src: newStripeSource(f.src)}
	pio.tcp, _ = conn.(*net.TCPConn)
	pio.zc = zeroCopyAvailable && !f.userspace && pio.src != nil && pio.tcp != nil
	return pio
}

// syscalls returns the context's total I/O call tally.
func (pio *pumpIO) syscalls() int64 {
	n := pio.calls
	if pio.src != nil {
		n += pio.src.calls
	}
	return n
}

// markFirstByte records the epoch's first payload byte instant, once.
func markFirstByte(firstByte *atomic.Int64, sent int64, start time.Time) {
	if sent > 0 && firstByte.Load() == 0 {
		d := time.Since(start).Nanoseconds()
		if d < 1 {
			d = 1
		}
		firstByte.CompareAndSwap(0, d)
	}
}

// pace enforces token-bucket pacing on a stripe's cumulative volume,
// for both pumps — across frames on the file plane, so single-chunk
// small files are paced too. The sleep
// is clamped to the epoch's remainder (a frame still open at the
// deadline finishes unpaced) and watches for an abort so a cancelled
// epoch is not held up: the watchdog has expired the write deadline,
// so the next write fails fast if truly aborted.
func pace(rate float64, sent int64, pumpStart, deadline time.Time, abort <-chan struct{}) {
	due := time.Duration(float64(sent) / rate * float64(time.Second))
	elapsed := time.Since(pumpStart)
	if due <= elapsed {
		return
	}
	sleep := due - elapsed
	if remain := time.Until(deadline); sleep > remain {
		sleep = remain
	}
	if sleep <= 0 {
		return
	}
	t := time.NewTimer(sleep)
	select {
	case <-abort:
		t.Stop()
	case <-t.C:
	}
}

// filePump drains the file queue into one data stripe. A lease, once
// its frame header is committed, is always pushed to completion (the
// server expects exactly the framed length) — the epoch deadline is
// enforced between frames. Any write or source-read error marks the
// stripe dead (a half-written frame makes the connection unusable for
// the next epoch) and requeues the unsent remainder.
//
// Payload routing per lease:
//   - zero-copy (pio.zc, lease >= zcMinSegment): one header write,
//     then the whole lease through sendfile(2) — payload bytes never
//     cross userspace;
//   - file-backed userspace: pread into a pooled buffer, fileChunk at
//     a time;
//   - no source: synthesized zeros.
//
// On the userspace paths the header rides the first payload chunk in
// a single writev, so a small file still moves in one syscall.
func filePump(conn net.Conn, q *fileQueue, pio *pumpIO, rate float64, deadline time.Time, abort <-chan struct{}, firstByte *atomic.Int64, start time.Time) (sent int64, alive bool) {
	hdr := make([]byte, 0, 48)
	shaped := !math.IsInf(rate, 1)
	pumpStart := time.Now()
	defer pio.src.release()
	for {
		select {
		case <-abort:
			return sent, true
		default:
		}
		if time.Now().After(deadline) {
			return sent, true
		}
		quantum := int64(leaseQuantum)
		if pio.zc {
			quantum = zcLeaseQuantum
		}
		if shaped {
			// Bound the lease to what the rate can move before the
			// deadline, so finishing the frame overshoots the epoch by
			// at most about one chunk.
			if b := int64(rate * time.Until(deadline).Seconds()); b < quantum {
				quantum = b
			}
			if quantum < fileChunk {
				quantum = fileChunk
			}
		}
		idx, off, n, wait := q.next(quantum)
		if n == 0 {
			if !wait {
				return sent, true
			}
			// Nothing admitted yet; admissions arrive at the opener's
			// pp/latency pace.
			t := time.NewTimer(time.Millisecond)
			select {
			case <-abort:
				t.Stop()
				return sent, true
			case <-t.C:
			}
			continue
		}
		var f *os.File
		if pio.src != nil {
			var err error
			if f, err = pio.src.file(idx); err != nil {
				// The validated source file vanished mid-transfer. The
				// lease cannot be produced, so give the stripe up; the
				// queue keeps the bytes for a later epoch.
				q.requeue(idx, n)
				return sent, false
			}
		}
		hdr = appendFrameHeader(hdr[:0], idx, off, n)

		if pio.zc && n >= zcMinSegment {
			// Warm the lease's pages before sendfile: cold pages fault
			// into the splice path one at a time, stalling the send
			// syscall per page, where a WILLNEED hint populates the
			// whole range up front.
			pio.src.calls += fadviseWillNeed(f, off, n)
			// Cork the stream across header+payload so the small
			// frame header coalesces with the first payload pages
			// rather than leaving as its own tiny segment before each
			// sendfile.
			pio.calls += setCork(pio.tcp, 1)
			if _, err := pio.tcp.Write(hdr); err != nil {
				q.requeue(idx, n)
				return sent, false
			}
			pio.calls++
			m, err := sendFileSegment(pio.tcp, f, off, n)
			pio.calls += setCork(pio.tcp, 0)
			pio.src.calls += 2 // the seek and the sendfile
			sent += m
			markFirstByte(firstByte, m, start)
			if err != nil {
				q.requeue(idx, n-m)
				return sent, false
			}
			if shaped {
				pace(rate, sent, pumpStart, deadline, abort)
			}
			continue
		}

		first := true
		for rem, pos := n, off; rem > 0; {
			want := rem
			if want > fileChunk {
				want = fileChunk
			}
			payload := fileZeros[:want]
			if f != nil {
				buf := pio.src.buf()
				m, _ := f.ReadAt(buf[:want], pos)
				pio.src.calls++
				if int64(m) < want {
					q.requeue(idx, rem)
					return sent, false
				}
				payload = buf[:want]
			}
			var nw int64
			var err error
			if first {
				// Header and first chunk in one writev.
				pio.vec = append(pio.vecbuf[:0], hdr, payload)
				nw, err = pio.vec.WriteTo(conn)
				if nw -= int64(len(hdr)); nw < 0 {
					nw = 0
				}
				first = false
			} else {
				var m int
				m, err = conn.Write(payload)
				nw = int64(m)
			}
			pio.calls++
			sent += nw
			rem -= nw
			pos += nw
			markFirstByte(firstByte, nw, start)
			if err != nil {
				q.requeue(idx, rem)
				return sent, false
			}
			if shaped {
				pace(rate, sent, pumpStart, deadline, abort)
			}
		}
	}
}

// framedPlane is the dataset-aware data plane: stripes pull
// (file, offset, length) leases from a work queue and send them as
// FILE frames, an opener pipelines the per-file OPEN handshakes on the
// control connection, and receiver truth is the server's per-file
// table (SETTLE, and RESYNC to rebuild the queue from it). Mutated only
// by Run and NewClient — never concurrently.
type framedPlane struct {
	c            *Client
	q            *fileQueue
	src          *fileSource // file-backed payload (SourceDir); nil synthesizes zeros
	userspace    bool        // tests only: keep file-backed leases off sendfile(2), the reference path
	datasetBytes int64       // total payload bytes across the dataset
	manifested   bool        // MANIFEST (and the sink it asks for) registered on the server
	needResync   bool        // queue must resync against server counters
	lastDone     int         // server's completed-file count last settle
	gotScratch   []int64     // reusable RESYNC parse buffer

	// Per epoch: the control connection arm secured for the opener,
	// and what the stripes tally for the report.
	ctrl      net.Conn
	ctrlR     *bufio.Reader
	firstByte atomic.Int64 // nanoseconds from epoch start to the first payload byte
	sysCalls  atomic.Int64 // data-plane syscalls issued
}

// newFramedPlane builds c's file plane from its Dataset and SourceDir.
func newFramedPlane(c *Client) (*framedPlane, error) {
	f := &framedPlane{
		c:            c,
		q:            newFileQueue(c.cfg.Dataset),
		datasetBytes: c.cfg.Dataset.TotalBytes(),
		// A resumed transfer rebuilds its work queue from the server's
		// per-file counters before the first pump, restarting at
		// file/offset granularity.
		needResync: c.cfg.AckedBytes > 0,
	}
	if c.cfg.SourceDir != "" {
		var err error
		if f.src, err = newFileSource(c.cfg.SourceDir, c.cfg.Dataset); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// verb: framed data connections announce themselves with DATAF.
func (*framedPlane) verb() string { return "DATAF" }

// arm registers the manifest once per session (the server keeps it
// under the token until the idle TTL; the sink request rides on it, so
// a server restart re-arms persistence too), rebuilds the work queue
// from receiver truth when resuming or after losses, and secures the
// control connection the opener will own during the pump.
func (f *framedPlane) arm(ctx context.Context, e *epoch) error {
	c := f.c
	if !f.manifested {
		if _, err := c.exchange(ctx, &e.cost, f.manifest(), "OK"); err != nil {
			return fmt.Errorf("gridftp: manifest: %w", err)
		}
		f.manifested = true
	}
	if f.needResync {
		// Quiesced here: no leases are in flight between epochs. A
		// failed resync is not fatal — the queue keeps its local view
		// (duplicates are clamped server-side) and a later epoch
		// retries.
		if err := f.resync(ctx, e); err == nil {
			f.needResync = false
		} else if ierr := interrupted(ctx); ierr != nil {
			return ierr
		}
	}
	var err error
	if f.ctrl, f.ctrlR, err = c.ctrlConn(&e.cost); err != nil {
		return fmt.Errorf("gridftp: control: %w", err)
	}
	return nil
}

// pump starts the opener and hands every stripe a filePump over the
// shared queue; join waits for the opener's ACK drain (bounded by its
// read deadline), so the control connection is quiet again before
// settle's exchanges.
func (f *framedPlane) pump(ctx context.Context, e *epoch) (func(net.Conn) (int64, bool), func()) {
	f.firstByte.Store(0)
	f.sysCalls.Store(0)
	opened := make(chan struct{})
	go func() {
		defer close(opened)
		f.opener(ctx, e)
	}()
	return func(conn net.Conn) (int64, bool) {
		pio := f.newPumpIO(conn)
		sent, alive := filePump(conn, f.q, pio, e.rate, e.deadline, ctx.Done(), &f.firstByte, e.began)
		f.sysCalls.Add(pio.syscalls())
		return sent, alive
	}, func() { <-opened }
}

// opener owns the control connection for the pump phase of a dataset
// epoch: it keeps up to pp OPEN requests in flight, admits each file
// to the work queue as its ACK returns, and drains every outstanding
// ACK before returning so the connection is clean for the SETTLE
// exchange that follows. A read or write failure poisons the control
// connection (the next exchange re-dials); un-ACKed files simply stay
// unadmitted for a later epoch. Each refill round batches its OPEN
// lines into a single write — pp-deep pipelining costs one syscall per
// ACK round trip, not pp — tallied into the epoch's syscalls.
func (f *framedPlane) opener(ctx context.Context, e *epoch) {
	conn, br, q := f.ctrl, f.ctrlR, f.q
	pp := max(e.p.Pipelining(), 1)
	conn.SetReadDeadline(e.deadline.Add(ackSlack))
	defer conn.SetReadDeadline(time.Time{})
	// An interrupt must not wait out the ACK read.
	unwatch := onAbort(ctx, func() { conn.SetReadDeadline(time.Now()) })
	defer unwatch()
	batch := make([]byte, 0, 512)
	inflight := 0
	for ctx.Err() == nil {
		if !time.Now().After(e.deadline) {
			batch = batch[:0]
			for inflight < pp {
				idx, ok := q.nextToOpen()
				if !ok {
					break
				}
				batch = append(batch, "OPEN "...)
				batch = append(batch, f.c.token...)
				batch = append(batch, ' ')
				batch = strconv.AppendInt(batch, int64(idx), 10)
				batch = append(batch, '\n')
				inflight++
			}
			if len(batch) > 0 {
				if _, err := conn.Write(batch); err != nil {
					f.c.dropCtrl(conn)
					return
				}
				f.sysCalls.Add(1)
			}
		}
		if inflight == 0 {
			return
		}
		resp, err := readLine(br)
		rest, ok := strings.CutPrefix(resp, "ACK ")
		idx, aerr := strconv.Atoi(rest)
		if err != nil || !ok || aerr != nil {
			f.c.dropCtrl(conn)
			return
		}
		q.admit(idx)
		inflight--
	}
}

// manifest renders the MANIFEST command that registers the dataset
// under the client's token: the header — with the SINK flag when the
// client wants the files persisted — and one size line per file, sent
// as a single exchange (the server answers OK after the last line).
// Idempotent — a re-sent manifest of the same shape keeps the server's
// progress.
func (f *framedPlane) manifest() string {
	var sb strings.Builder
	sb.Grow(len(f.q.sizes)*8 + 64)
	sb.WriteString("MANIFEST ")
	sb.WriteString(f.c.token)
	sb.WriteByte(' ')
	sb.WriteString(strconv.Itoa(len(f.q.sizes)))
	if f.c.cfg.RequestSink {
		sb.WriteString(" SINK")
	}
	for _, sz := range f.q.sizes {
		sb.WriteByte('\n')
		sb.WriteString(strconv.FormatInt(sz, 10))
	}
	return sb.String()
}

// settle reconciles against per-file receiver truth: the epoch's
// volume is the growth of the server's duplicate-free byte total
// (resends past a file's size count toward nothing), its files the
// growth of the completed-file count.
func (f *framedPlane) settle(ctx context.Context, e *epoch, sent int64, r *xfer.Report) {
	r.FirstByteLag = time.Duration(f.firstByte.Load()).Seconds()
	r.Syscalls = f.sysCalls.Load()
	c := f.c
	truth, err := c.settled(ctx, e, sent, false)
	if err != nil {
		return
	}
	c.mu.Lock()
	prev := c.acked
	if truth.useful >= prev {
		c.acked = truth.useful
	}
	c.mu.Unlock()
	if delta := truth.useful - prev; delta >= 0 {
		r.Bytes = float64(delta)
		c.remaining.Store(f.datasetBytes - truth.useful)
	} else {
		// The server lost the token's file table (idle-TTL expiry or
		// restart): re-register the manifest — and with it the sink —
		// and resync the queue next epoch.
		f.manifested, f.needResync = false, true
	}
	if truth.done >= f.lastDone {
		r.Files = truth.done - f.lastDone
	}
	f.lastDone = truth.done
	if truth.done < len(f.q.sizes) && f.q.drained() {
		// Every byte was leased but the server still misses some (lost
		// in dead stripes' socket buffers): requeue the deficits from
		// receiver truth next epoch.
		f.needResync = true
	}
}

// resync rebuilds the work queue from the server's per-file received
// counts (the RESYNC exchange): lost bytes are requeued,
// already-received bytes are dropped, and resume restarts at
// file/offset granularity. Must only run quiesced (no leases in
// flight).
func (f *framedPlane) resync(ctx context.Context, e *epoch) error {
	if f.gotScratch == nil {
		f.gotScratch = make([]int64, len(f.q.sizes))
	}
	got := f.gotScratch
	err := f.c.roundTrip(ctx, &e.cost, "RESYNC "+f.c.token, func(br *bufio.Reader) error {
		clear(got)
		for {
			line, err := readLine(br)
			if err != nil || line == "END" {
				return err
			}
			fields := strings.Fields(line)
			if len(fields) != 3 || fields[0] != "F" {
				return errProtocolf("bad RESYNC response")
			}
			idx, err1 := strconv.Atoi(fields[1])
			g, err2 := strconv.ParseInt(fields[2], 10, 64)
			if err1 != nil || err2 != nil || idx < 0 || idx >= len(got) || g < 0 {
				return errProtocolf("bad RESYNC response")
			}
			got[idx] = g
		}
	})
	if err != nil {
		return err
	}
	f.q.applyServer(got)
	// Re-baseline the completed-file delta at the server's current
	// count, so files finished before this session (or already
	// reconciled) are not reported again as this epoch's progress.
	f.lastDone = 0
	for i, g := range got {
		if g >= f.q.sizes[i] {
			f.lastDone++
		}
	}
	return nil
}
