package gridftp

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dstune/internal/dataset"
)

// errProtocolf wraps ErrProtocol with a formatted detail message.
func errProtocolf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrProtocol}, args...)...)
}

// fileChunk is the pump's payload write size when nothing paces it. It
// lets a typical small file move in one writev of frame header and
// payload, keeping the per-file syscall count flat
// (BenchmarkManyFilesEpoch pins it), and a one-file transfer write a
// sixteenth of the syscalls a 64 KiB write would cost.
const fileChunk = 1 << 20

// fileZeros is the one payload buffer the pump slices (the /dev/zero
// stand-in).
var fileZeros = make([]byte, fileChunk)

// ackSlack bounds how long the opener waits for the ACKs of OPENs
// still outstanding when the epoch deadline passes, so the control
// connection is drained (and reusable for SETTLE) shortly after the
// epoch ends.
const ackSlack = 2 * time.Second

// fileQueue is the client-side file-segment work queue. Files become
// leasable only after admission (the OPEN/ACK handshake the opener
// performs up to pp deep); stripes then pull (file, offset, length)
// leases of at most leaseQuantum bytes. The unsent remainder of a failed lease is
// requeued immediately; bytes lost in a dead stripe's socket buffer
// are recovered by resyncing against the server's per-file counters.
//
// A file costs the queue its size, read in place, and two bits. Its
// unleased remainder is stored only while it is in ready, partly
// leased or requeued; any other file's is implied by its bits: its size
// until it is started, all of it again in ready, and zero once it is
// started and out of ready — a started file with bytes to lease is
// always in ready, and a file is leased only once started.
type fileQueue struct {
	mu       sync.Mutex
	sizes    []int64         // the dataset's own, read in place and never written
	started  bitset          // admitted (or known to the server from a resume)
	inReady  bitset          // membership in ready
	part     map[int32]int64 // the remainder of a file in ready, where it is not the size
	ready    []int32         // admitted files with bytes to lease, leased LIFO
	nextOpen int             // admission cursor
	unleased int64           // sum of the remainders of all files
}

// newFileQueue builds the queue for d, whose sizes must not be
// negative. Zero-length files need no bytes and are never admitted.
func newFileQueue(d dataset.Dataset) *fileQueue {
	n := d.Count()
	return &fileQueue{
		sizes:    d.Sizes,
		started:  newBitset(n),
		inReady:  newBitset(n),
		part:     make(map[int32]int64),
		unleased: d.TotalBytes(),
	}
}

// rem returns file idx's unleased remainder. q.mu must be held.
func (q *fileQueue) rem(idx int) int64 {
	switch {
	case !q.started.has(idx):
		return q.sizes[idx]
	case !q.inReady.has(idx):
		return 0
	}
	if r, ok := q.part[int32(idx)]; ok {
		return r
	}
	return q.sizes[idx]
}

// push puts file idx, started and out of ready, on ready with
// remainder r. q.mu must be held.
func (q *fileQueue) push(idx int, r int64) {
	q.ready = append(q.ready, int32(idx))
	q.inReady.set(idx)
	if r != q.sizes[idx] {
		q.part[int32(idx)] = r
	}
}

// next leases up to quantum bytes of the next admitted file. n == 0
// with wait true means nothing is admitted right now but more bytes
// remain (the pump should idle briefly); wait false means every byte
// has been leased and the pump is done for this epoch.
func (q *fileQueue) next(quantum int64) (idx int, off, n int64, wait bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.ready) > 0 {
		i := int(q.ready[len(q.ready)-1])
		r := q.rem(i)
		n = min(r, quantum)
		return i, q.take(i, r, n), n, false
	}
	return 0, 0, 0, q.unleased > 0
}

// nextRun appends to run, up to its capacity, leases of the whole
// remainders of the next admitted files, while each remainder is at most
// each bytes and they total at most budget: the small files one
// coalesced write carries after run's first lease.
func (q *fileQueue) nextRun(run []frameLease, budget, each int64) []frameLease {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(run) < cap(run) && len(q.ready) > 0 {
		i := int(q.ready[len(q.ready)-1])
		r := q.rem(i)
		if r > min(each, budget) {
			break
		}
		budget -= r
		run = append(run, frameLease{idx: i, off: q.take(i, r, r), n: r})
	}
	return run
}

// take leases the next n bytes of file idx, the top of ready, whose
// remainder is r, returns their offset, and pops the file once nothing
// of it is left. q.mu must be held.
func (q *fileQueue) take(idx int, r, n int64) (off int64) {
	q.unleased -= n
	if r-n > 0 {
		q.part[int32(idx)] = r - n
	} else {
		q.ready = q.ready[:len(q.ready)-1]
		q.inReady.clear(idx)
		if r != q.sizes[idx] {
			delete(q.part, int32(idx))
		}
	}
	return q.sizes[idx] - r
}

// requeue returns n unsent bytes of file idx, which it leased, to the
// queue (a lease cut short by a dead stripe).
func (q *fileQueue) requeue(idx int, n int64) {
	if n <= 0 {
		return
	}
	q.mu.Lock()
	q.unleased += n
	if !q.inReady.has(idx) {
		q.push(idx, n)
	} else if r := q.rem(idx) + n; r == q.sizes[idx] {
		delete(q.part, int32(idx))
	} else {
		q.part[int32(idx)] = r
	}
	q.mu.Unlock()
}

// admit marks file idx admitted (its OPEN was ACKed) and leasable.
func (q *fileQueue) admit(idx int) {
	if idx < 0 {
		return
	}
	q.mu.Lock()
	if idx < len(q.sizes) && !q.started.has(idx) {
		q.started.set(idx)
		if q.sizes[idx] > 0 {
			q.push(idx, q.sizes[idx])
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
		if q.sizes[i] > 0 && !q.started.has(i) {
			return i, true
		}
	}
	return 0, false
}

// reopen moves the admission cursor back to idx, so the files from
// there on that were not admitted — OPENs whose ACKs were lost with
// their control connection — are opened again.
func (q *fileQueue) reopen(idx int) {
	q.mu.Lock()
	q.nextOpen = min(q.nextOpen, idx)
	q.mu.Unlock()
}

// drained reports whether every byte has been leased.
func (q *fileQueue) drained() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.unleased == 0
}

// serverCounts is a RESYNC answer as the queue reads it: a bit for
// each file the server holds whole (or past whole, after a resend) and
// the count of each file it holds part of. Reused from one resync to
// the next.
type serverCounts struct {
	whole   bitset
	partial map[int32]int64
}

// reset empties the counts for a dataset of n files.
func (sc *serverCounts) reset(n int) {
	if len(sc.whole) == 0 {
		sc.whole, sc.partial = newBitset(n), make(map[int32]int64)
	}
	clear(sc.whole)
	clear(sc.partial)
}

// read takes a RESYNC answer for a dataset of the given sizes from br:
// lines "F <idx> <count>", each field one space from the next, then
// END. Each line is parsed where it lies in br's buffer, so the answer
// costs nothing a file.
func (sc *serverCounts) read(br *bufio.Reader, sizes []int64) error {
	sc.reset(len(sizes))
	for {
		line, err := readSlice(br)
		if err != nil || string(line) == "END" {
			return err
		}
		rest, isF := bytes.CutPrefix(line, []byte("F "))
		idxField, countField, two := bytes.Cut(rest, []byte(" "))
		idx, okIdx := parseDecimal(idxField, 9)
		got, okGot := parseDecimal(countField, 19)
		if !isF || !two || !okIdx || !okGot || got < 0 || idx >= int64(len(sizes)) {
			return errProtocolf("bad RESYNC response")
		}
		sc.set(int(idx), got, sizes[idx])
	}
}

// set records that the server holds got bytes of file idx, whose size
// is size; a later line for the same file overrides an earlier one.
func (sc *serverCounts) set(idx int, got, size int64) {
	sc.whole.clear(idx)
	delete(sc.partial, int32(idx))
	switch {
	case got > 0 && got >= size:
		sc.whole.set(idx)
	case got > 0:
		sc.partial[int32(idx)] = got
	}
}

// held returns the bytes of file idx the server holds, at most its
// size, and whether it holds any.
func (sc *serverCounts) held(idx int, size int64) (n int64, some bool) {
	if sc.whole.has(idx) {
		return size, true
	}
	n, some = sc.partial[int32(idx)]
	return n, some
}

// applyServer resynchronizes the queue against the server's per-file
// received counts: each file's unleased remainder becomes exactly the
// bytes the server still misses, so deficits from bytes lost in dead
// stripes' socket buffers are requeued and duplicate work is dropped.
// Files the server has bytes for are marked started — a resumed
// session needs no fresh OPEN for them. It returns the files the server
// holds whole and its duplicate-free bytes. Callers must be quiesced:
// no leases in flight.
func (q *fileQueue) applyServer(sc *serverCounts) (done int, useful int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.ready = q.ready[:0]
	clear(q.inReady)
	clear(q.part)
	q.unleased = 0
	for i, sz := range q.sizes {
		g, some := sc.held(i, sz)
		if some {
			q.started.set(i)
		}
		if g == sz {
			done++
		}
		useful += g
		r := sz - g
		q.unleased += r
		if r > 0 && q.started.has(i) {
			q.push(i, r)
		}
	}
	return done, useful
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

// maxRun bounds the frames one coalesced write carries (see writeRun).
const maxRun = 64

// frameLease is one lease of a coalesced run: hdr is its frame header's
// length once written.
type frameLease struct {
	idx         int
	off, n, hdr int64
}

// pumpIO is one stripe's I/O context for filePump: the payload source
// (nil synthesizes zeros), the zero-copy routing decision, the
// write-side syscall tally the epoch report surfaces (source-side
// reads tally in src), and the arrays a write's leases, frame headers
// and iovecs live in, so no write allocates. Owned by a single pump
// goroutine.
type pumpIO struct {
	src    *stripeSource
	tcp    *net.TCPConn // non-nil when conn is an unwrapped TCP connection
	zc     bool         // route big leases through sendfile(2)
	calls  int64        // write/writev syscalls issued
	vec    net.Buffers
	vecbuf [2 * maxRun][]byte
	run    [maxRun]frameLease
	hdrs   [maxRun][64]byte // "FILE <idx> <off> <len>\n" is at most 56 bytes
}

// newPumpIO builds conn's pump context: zero-copy engages only when
// the build supports it, a file source exists, and the connection is
// an unwrapped *net.TCPConn (fault-injecting wrappers fall back to the
// userspace path automatically).
func (c *Client) newPumpIO(conn net.Conn) *pumpIO {
	pio := &pumpIO{src: newStripeSource(c.src)}
	pio.tcp, _ = conn.(*net.TCPConn)
	pio.zc = zeroCopyAvailable && !c.userspace && pio.src != nil && pio.tcp != nil
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
// across frames, so single-chunk small files are paced too. The sleep
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
// enforced between leases, a coalesced run counting as one. Any write
// or source-read error marks the stripe dead (a half-written frame
// makes the connection unusable for the next epoch) and requeues the
// unsent remainder.
//
// Payload routing per lease:
//   - zero-copy (pio.zc, lease >= zcMinSegment): one header write,
//     then the whole lease through sendfile(2) — payload bytes never
//     cross userspace;
//   - at most fileChunk: one writev of its frame and those of the small
//     files after it (writeRun);
//   - bigger: the header rides the first fileChunk of payload in one
//     writev, the rest follows fileChunk at a time.
//
// Userspace payload is pread into a pooled buffer when file-backed and
// sliced from the shared zero buffer otherwise. Shaped, a lease is one chunkSize
// frame, or a run of frames as big, written whole between two looks at
// the token bucket, so a committed write overshoots the deadline by at
// most one pacing quantum; unshaped, boundLease sizes a write to the
// stripe's rate.
func filePump(conn net.Conn, q *fileQueue, pio *pumpIO, rate float64, deadline time.Time, abort <-chan struct{}, firstByte *atomic.Int64, start time.Time) (sent int64, alive bool) {
	shaped := !math.IsInf(rate, 1)
	quantum := int64(leaseQuantum)
	switch {
	case shaped:
		quantum = chunkSize
	case pio.zc:
		quantum = zcLeaseQuantum
	}
	pumpStart := time.Now()
	var leasing time.Time // when the stripe took its first lease, the start of its rate
	defer pio.src.release()
	for {
		select {
		case <-abort:
			return sent, true
		default:
		}
		now := time.Now()
		if now.After(deadline) {
			return sent, true
		}
		bound := boundLease(quantum, sent, now.Sub(leasing), deadline.Sub(now))
		idx, off, n, wait := q.next(bound)
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
		if leasing.IsZero() {
			leasing = now
		}
		if n <= fileChunk && !(pio.zc && n >= zcMinSegment) {
			m, ok := pio.writeRun(conn, q, frameLease{idx: idx, off: off, n: n}, min(bound, fileChunk))
			sent += m
			markFirstByte(firstByte, m, start)
			if !ok {
				return sent, false
			}
			if shaped {
				pace(rate, sent, pumpStart, deadline, abort)
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
		hdr := appendFrameHeader(pio.hdrs[0][:0], idx, off, n)

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
			want := min(rem, fileChunk)
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

// writeRun writes the lease first and the run of small files nextRun
// adds after it — at most budget payload bytes and maxRun frames, each
// added file under zcMinSegment on a zero-copy stripe, so sendfile keeps
// the leases it would have taken — as frames in one writev, and returns
// the payload bytes written; ok false is a failed read or write.
func (pio *pumpIO) writeRun(conn net.Conn, q *fileQueue, first frameLease, budget int64) (sent int64, ok bool) {
	each := budget - first.n
	if pio.zc {
		each = min(each, zcMinSegment-1)
	}
	run := q.nextRun(append(pio.run[:0], first), budget-first.n, each)
	pio.vec = pio.vecbuf[:0]
	var pos int64
	for i := range run {
		l := &run[i]
		hdr := appendFrameHeader(pio.hdrs[i][:0], l.idx, l.off, l.n)
		l.hdr = int64(len(hdr))
		payload := fileZeros[:l.n]
		if pio.src != nil {
			payload = pio.src.buf()[pos : pos+l.n]
			pos += l.n
			f, err := pio.src.file(l.idx)
			m := 0
			if err == nil {
				m, _ = f.ReadAt(payload, l.off)
				pio.src.calls++
			}
			if int64(m) < l.n {
				// Nothing is written yet: the whole run goes back.
				return creditRun(q, run, 0), false
			}
		}
		pio.vec = append(pio.vec, hdr, payload)
	}
	nw, err := pio.vec.WriteTo(conn)
	pio.calls++
	return creditRun(q, run, nw), err == nil
}

// creditRun returns the payload bytes the first written bytes of run's
// frames carried, and requeues each lease's unsent rest: all of a frame
// the write did not reach, the tail of the one it cut, nothing of those
// it finished.
func creditRun(q *fileQueue, run []frameLease, written int64) (sent int64) {
	for _, l := range run {
		got := min(max(written-l.hdr, 0), l.n)
		written -= min(written, l.hdr+l.n)
		sent += got
		q.requeue(l.idx, l.n-got)
	}
	return sent
}

// rateSpan is how long a stripe's rate must have been measured, unless
// it already spans a whole lease quantum of bytes, before boundLease
// trusts it to keep a lease inside the epoch: longer than the few
// scheduler time slices a pump can lose to a busy host.
const rateSpan = 50 * time.Millisecond

// writeSlack is how far past the epoch's deadline a stripe's write
// deadline lies.
const writeSlack = time.Second

// boundLease bounds a lease so that its frame, written whole once
// committed, still fits before the stripe's write deadline, writeSlack
// past the epoch's. The epoch's first lease is one chunkSize. A later
// one is sized by the stripe's rate since it took its first lease
// (elapsed): once that rate is measured over rateSpan or a whole
// quantum, at most what it moves before the epoch deadline; before, at
// most what it moves halfway into the slack, because a few slow writes
// cannot tell a slow stream from a pump that lost its CPU for a while.
// Never less than chunkSize nor more than quantum (so a shaped lease is
// always chunkSize). On a stream of a few MB/s a 4 MiB lease begun late
// would time out, and the half-written frame would cost the stripe its
// place in the warm pool; on loopback, a pump descheduled through its
// first 64 KiB would read a few MB/s and cut a 32 MiB zero-copy file
// into leases of a few hundred KiB, six syscalls each. (A send buffer
// that emptied between epochs makes the first rates read high; only
// the rest of the slack covers that.)
func boundLease(quantum, sent int64, elapsed, left time.Duration) int64 {
	if sent == 0 || elapsed <= 0 {
		return chunkSize
	}
	window := left
	if elapsed < rateSpan && sent < quantum {
		window = (left + writeSlack) / 2
	}
	return max(chunkSize, int64(min(float64(quantum), float64(sent)*window.Seconds()/elapsed.Seconds())))
}

// errNotResumable refuses a resumed token whose START answer holds the
// checkpoint's bytes while its file table does not: a bulk-stream token
// of a client older than the one-file manifest, on an older gridftpd
// whose START reads its aggregate counter. Resent from file offset
// zero, those bytes would be counted twice.
var errNotResumable = errors.New("gridftp: token not resumable: the server counts the checkpoint's bytes but holds no file progress for them")

// opener owns the control connection for the pump phase of a dataset
// epoch: it keeps up to pp OPEN requests in flight, admits each file
// to the work queue as its ACK returns, and drains every outstanding
// ACK before returning so the connection is clean for the SETTLE
// exchange that follows. A read or write failure poisons the control
// connection (the next exchange re-dials), and the admission cursor
// goes back to the first file this call opened, so the files whose
// ACKs were lost with it are opened again, the next epoch if not this
// one. After each blocking read it takes every
// ACK already buffered before it refills, so a round's freed slots
// leave as one batch of OPEN lines in one write — tallied into the
// epoch's syscalls — and, with the server batching its ACKs the same
// way, pp-deep pipelining costs one write per round trip, not per file.
func (c *Client) opener(ctx context.Context, e *epoch) {
	conn, br, q := e.ctrl, e.ctrlR, c.q
	pp := max(e.p.Pipelining(), 1)
	conn.SetReadDeadline(e.deadline.Add(ackSlack))
	defer conn.SetReadDeadline(time.Time{})
	// An interrupt must not wait out the ACK read.
	unwatch := onAbort(ctx, func() { conn.SetReadDeadline(time.Now()) })
	defer unwatch()
	batch := make([]byte, 0, 512)
	inflight, first := 0, -1
	defer func() {
		if inflight > 0 {
			q.reopen(first)
		}
	}()
	for ctx.Err() == nil {
		if !time.Now().After(e.deadline) {
			batch = batch[:0]
			for inflight < pp {
				idx, ok := q.nextToOpen()
				if !ok {
					break
				}
				if first < 0 {
					first = idx
				}
				batch = append(batch, "OPEN "...)
				batch = append(batch, c.token...)
				batch = append(batch, ' ')
				batch = strconv.AppendInt(batch, int64(idx), 10)
				batch = append(batch, '\n')
				inflight++
			}
			if len(batch) > 0 {
				if _, err := conn.Write(batch); err != nil {
					c.dropCtrl(conn)
					return
				}
				c.sysCalls.Add(1)
			}
		}
		if inflight == 0 {
			return
		}
		for read := false; inflight > 0 && (!read || holdsLine(br)); read = true {
			idx, ok := readAck(br)
			if !ok {
				c.dropCtrl(conn)
				return
			}
			q.admit(idx)
			inflight--
		}
	}
}

// readAck reads one "ACK <idx>" answer without allocating; ok false is
// a failed read or any other line.
func readAck(br *bufio.Reader) (idx int, ok bool) {
	line, err := readSlice(br)
	digits, isAck := bytes.CutPrefix(line, []byte("ACK "))
	v, ok := parseDecimal(digits, 9)
	return int(v), ok && isAck && err == nil
}

// manifestLine is the MANIFEST command's verb line: the token, the
// file count and, when the client wants the files persisted, the SINK
// flag. It is what an error about the exchange quotes.
func (c *Client) manifestLine() string {
	line := "MANIFEST " + c.token + " " + strconv.Itoa(len(c.q.sizes))
	if c.cfg.RequestSink {
		line += " SINK"
	}
	return line
}

// manifestChunk is the most of a rendered manifest held at once.
const manifestChunk = 64 << 10

// writeManifest writes the MANIFEST command that registers the dataset
// under the client's token — the verb line, then one size line per
// file — to w as it renders it, a chunk at a time, so the command never
// exists whole in memory. The server answers OK after the last line.
// Idempotent — a re-sent manifest of the same shape keeps the server's
// progress.
func (c *Client) writeManifest(w io.Writer) error {
	b := make([]byte, 0, manifestChunk)
	b = append(b, c.manifestLine()...)
	for _, sz := range c.q.sizes {
		if len(b) > manifestChunk-24 {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
		b = append(b, '\n')
		b = strconv.AppendInt(b, sz, 10)
	}
	_, err := w.Write(append(b, '\n'))
	return err
}

// resync rebuilds the work queue from the server's per-file received
// counts (the RESYNC exchange): lost bytes are requeued,
// already-received bytes are dropped, and resume restarts at
// file/offset granularity. The expectation is re-based on the
// duplicate-free bytes the server holds, which it returns: a late byte
// the queue now owes again would otherwise be counted twice, once as
// written and once as resent. Must only run quiesced (no leases in
// flight).
func (c *Client) resync(ctx context.Context, e *epoch) (useful int64, err error) {
	sc := &c.counts
	err = c.roundTrip(ctx, &e.cost, command("RESYNC "+c.token), func(br *bufio.Reader) error {
		return sc.read(br, c.q.sizes)
	})
	if err != nil {
		return 0, err
	}
	done, useful := c.q.applyServer(sc)
	c.expect = useful
	if c.resuming {
		// Files finished before this session are not its progress. Later
		// resyncs leave the baseline to the settles, so a file a late
		// byte completed after the last one is still reported.
		c.lastDone = done
	}
	return useful, nil
}
