package gridftp

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// maxManifestFiles bounds the file count one MANIFEST may register,
// so a hostile client cannot make the server allocate an unbounded
// file table.
const maxManifestFiles = 1 << 20

// bitset holds one bit per file.
type bitset []uint64

func newBitset(n int) bitset    { return make(bitset, (n+63)/64) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << (i & 63) }

// fileTable is a token on the server: its per-file state, registered
// by MANIFEST, fed by framed data connections, and read by START,
// SETTLE and RESYNC — the one receiver truth. CLOSE and the idle-TTL
// janitor free it. Its sizes never change after MANIFEST; a manifest of
// another shape installs a new table.
//
// A file costs the table its size and a done bit. Its received count,
// duplicates included, is held only while it is neither 0 nor the
// file's size — a file caught partway, or received past its size by a
// resend — and is otherwise its size when done and 0 when not.
type fileTable struct {
	mu     sync.Mutex
	sizes  []int64
	done   bitset          // the received count has reached the size
	part   map[int32]int64 // the received count, where it is neither 0 nor the size
	nDone  int             // files done
	useful int64           // sum of min(received, size): duplicate-free progress

	lastActive atomic.Int64 // unix nanos, for idle expiry

	// sink, when non-nil, persists the table's payloads (MANIFEST's SINK
	// flag); nil discards them.
	sink atomic.Pointer[fileSink]
}

// newFileTable builds a table for sizes; zero-length files are done
// on arrival.
func newFileTable(sizes []int64) *fileTable {
	ft := &fileTable{
		sizes: sizes,
		done:  newBitset(len(sizes)),
		part:  make(map[int32]int64),
	}
	for i, sz := range sizes {
		if sz <= 0 {
			ft.done.set(i)
			ft.nDone++
		}
	}
	ft.touch()
	return ft
}

// touch records activity on the token, deferring its idle expiry.
func (ft *fileTable) touch() { ft.lastActive.Store(time.Now().UnixNano()) }

// got returns file idx's received count, duplicates included. ft.mu
// must be held.
func (ft *fileTable) got(idx int) int64 {
	if g, ok := ft.part[int32(idx)]; ok {
		return g
	}
	if ft.done.has(idx) {
		return ft.sizes[idx]
	}
	return 0
}

// add credits n received bytes to file idx, maintaining the done count
// and the duplicate-free useful total (got beyond the file's size —
// a resend after a lost stripe — counts toward neither). It reports
// whether this credit completed the file.
func (ft *fileTable) add(idx int, n int64) (completed bool) {
	ft.mu.Lock()
	sz := ft.sizes[idx]
	old, partial := ft.part[int32(idx)]
	if !partial && ft.done.has(idx) {
		old = sz
	}
	g := old + n
	ft.useful += min(g, sz) - min(old, sz)
	if old < sz && g >= sz {
		ft.done.set(idx)
		ft.nDone++
		completed = true
	}
	switch {
	case g != 0 && g != sz:
		ft.part[int32(idx)] = g
	case partial:
		delete(ft.part, int32(idx))
	}
	ft.mu.Unlock()
	return completed
}

// setSink installs (or with nil removes) the table's persistence
// sink, releasing the handles of the one it replaces.
func (ft *fileTable) setSink(fs *fileSink) {
	if old := ft.sink.Swap(fs); old != nil && old != fs {
		old.release()
	}
}

// stats returns the done count and duplicate-free received bytes.
func (ft *fileTable) stats() (done int, useful int64) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return ft.nDone, ft.useful
}

// appendProgress appends RESYNC's "F <idx> <got>" line for each file
// from idx on with any bytes, until b holds about its capacity, and
// returns b and the file to go on from.
func (ft *fileTable) appendProgress(b []byte, idx int) ([]byte, int) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	for ; idx < len(ft.sizes) && len(b) <= cap(b)-64; idx++ {
		if g := ft.got(idx); g > 0 {
			b = append(b, "F "...)
			b = strconv.AppendInt(b, int64(idx), 10)
			b = append(b, ' ')
			b = strconv.AppendInt(b, g, 10)
			b = append(b, '\n')
		}
	}
	return b, idx
}

// SetFileLatency injects a delay between a pipelined OPEN request and
// its ACK, simulating the per-file handshake round trip that the
// pipelining depth (pp) hides. Pipelined OPENs are delayed
// concurrently — pp outstanding requests all ACK one latency after
// arrival — so the admission rate is pp/latency files per second.
// Zero (the default) ACKs immediately. Safe to call while serving.
func (s *Server) SetFileLatency(d time.Duration) { s.fileLatency.Store(int64(d)) }

// registerManifest creates token — MANIFEST is the only verb that
// does — and returns its file table. A re-sent manifest with the same file count
// keeps the existing table, touched — a resumed session must not erase
// the server's per-file progress — and any other shape replaces it,
// releasing the replaced table's sink handles.
func (s *Server) registerManifest(token string, sizes []int64) *fileTable {
	s.mu.Lock()
	old := s.tokens[token]
	ft := old
	if old == nil || len(old.sizes) != len(sizes) {
		ft = newFileTable(sizes)
		s.tokens[token] = ft
	}
	live := len(s.tokens)
	s.mu.Unlock()
	s.metrics.Load().SetTokens(live)
	if ft == old {
		ft.touch()
	} else if old != nil {
		old.setSink(nil)
	}
	return ft
}

// sinkOpenFiles counts sink file handles currently open process-wide;
// the fuzz harness asserts hostile inputs leak none.
var sinkOpenFiles atomic.Int64

// maxSinkHandles caps the open handles one sink caches; beyond it an
// arbitrary handle is evicted and reopened on that file's next write.
const maxSinkHandles = 128

// fileSink persists one token's framed payloads as index-named files
// under the token's sink directory. The single lock covers both the
// handle cache and the writes: a pwrite must not race the eviction or
// release of its handle.
type fileSink struct {
	mu      sync.Mutex
	dir     string
	handles map[int]*os.File
	closed  bool
}

// newFileSink returns a sink writing under dir.
func newFileSink(dir string) *fileSink {
	return &fileSink{dir: dir, handles: make(map[int]*os.File)}
}

// writeAt persists p at offset off of file idx.
func (fs *fileSink) writeAt(idx int, p []byte, off int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return os.ErrClosed
	}
	f, ok := fs.handles[idx]
	if !ok {
		if len(fs.handles) >= maxSinkHandles {
			for i, h := range fs.handles {
				h.Close()
				sinkOpenFiles.Add(-1)
				delete(fs.handles, i)
				break
			}
		}
		var err error
		f, err = os.OpenFile(filepath.Join(fs.dir, fmt.Sprintf("%06d", idx)), os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		sinkOpenFiles.Add(1)
		fs.handles[idx] = f
	}
	_, err := f.WriteAt(p, off)
	return err
}

// closeIdx drops file idx's cached handle (the file completed, so the
// cache slot is better spent on a file still in flight).
func (fs *fileSink) closeIdx(idx int) {
	fs.mu.Lock()
	if f, ok := fs.handles[idx]; ok {
		f.Close()
		sinkOpenFiles.Add(-1)
		delete(fs.handles, idx)
	}
	fs.mu.Unlock()
}

// release closes every cached handle and refuses further writes.
func (fs *fileSink) release() {
	fs.mu.Lock()
	for i, f := range fs.handles {
		f.Close()
		sinkOpenFiles.Add(-1)
		delete(fs.handles, i)
	}
	fs.closed = true
	fs.mu.Unlock()
}

// sinkDirName maps a token to a directory name that cannot escape the
// sink root: unsafe bytes are masked, the length is bounded, and a
// short FNV hash keeps distinct tokens from colliding after masking.
func sinkDirName(token string) string {
	h := fnv.New32a()
	io.WriteString(h, token)
	safe := make([]byte, 0, 24)
	for i := 0; i < len(token) && len(safe) < 24; i++ {
		c := token[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
			safe = append(safe, c)
		default:
			safe = append(safe, '_')
		}
	}
	return fmt.Sprintf("%s-%08x", safe, h.Sum32())
}

// connWriter batches a control connection's answers: they collect in a
// buffered writer under one lock, because the ACKs of delayed OPENs are
// written from timers, and leave in one write when the connection's
// reader holds no whole request (next), before SETTLE waits, when the
// connection ends, and from a delayed ACK's own timer.
type connWriter struct {
	mu sync.Mutex
	bw *bufio.Writer
}

// Write implements io.Writer under the lock.
func (w *connWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bw.Write(p)
}

// Flush sends what is batched.
func (w *connWriter) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bw.Flush()
}

// ack batches "ACK <idx>" without allocating.
func (w *connWriter) ack(idx int) {
	w.mu.Lock()
	b := strconv.AppendInt(append(w.bw.AvailableBuffer(), "ACK "...), int64(idx), 10)
	w.bw.Write(append(b, '\n'))
	w.mu.Unlock()
}

// next returns the connection's next request line (see readSlice). When
// br holds no whole line the read may block on a client that waits for
// the batched answers, so they leave first.
func (w *connWriter) next(br *bufio.Reader) ([]byte, error) {
	if !holdsLine(br) {
		w.Flush()
	}
	return readSlice(br)
}

// serveManifest handles MANIFEST <token> <count> [SINK]: it reads count
// size lines from br and registers the token's file table; with the
// SINK flag it also switches the token's framed data plane from
// discarding payloads to persisting them under the server's sink root
// (Server.SetSink), idempotently for a token already sinking. Malformed
// input, or the flag on a server with no sink, gets an ERR and drops
// the connection; the token's existing state is never corrupted by a
// refused manifest.
func (s *Server) serveManifest(w *connWriter, br *bufio.Reader, fields []string) bool {
	sink := len(fields) == 4 && fields[3] == "SINK"
	if len(fields) != 3 && !sink {
		fmt.Fprintf(w, "ERR bad MANIFEST\n")
		return false
	}
	count, err := strconv.Atoi(fields[2])
	if err != nil || count < 0 || count > maxManifestFiles {
		fmt.Fprintf(w, "ERR bad MANIFEST count\n")
		return false
	}
	sizes := make([]int64, count)
	for i := range sizes {
		line, err := w.next(br)
		if err != nil {
			return false
		}
		v, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 10, 64)
		if err != nil || v < 0 {
			fmt.Fprintf(w, "ERR bad MANIFEST size\n")
			return false
		}
		sizes[i] = v
	}
	var dir string
	if sink {
		root := s.sinkDir()
		if root == "" {
			fmt.Fprintf(w, "ERR sink not configured\n")
			return false
		}
		dir = filepath.Join(root, sinkDirName(fields[1]))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			s.logf("gridftp: sink: %v", err)
			fmt.Fprintf(w, "ERR sink unavailable\n")
			return false
		}
	}
	ft := s.registerManifest(fields[1], sizes)
	if sink && ft.sink.Load() == nil {
		ft.setSink(newFileSink(dir))
	}
	fmt.Fprintf(w, "OK\n")
	return true
}

// serveOpen answers OPEN <token> <idx>: it validates the index against
// the token's manifest and batches the ACK, at once or, under an
// injected file latency, from a timer of its own — pipelined OPENs wait
// out their latencies concurrently.
func (s *Server) serveOpen(w *connWriter, token string, idx int) bool {
	ft := s.lookup(token)
	if ft == nil || idx >= len(ft.sizes) {
		fmt.Fprintf(w, "ERR OPEN outside manifest\n")
		return false
	}
	if lat := time.Duration(s.fileLatency.Load()); lat > 0 {
		time.AfterFunc(lat, func() {
			w.ack(idx)
			w.Flush()
		})
	} else {
		w.ack(idx)
	}
	return true
}

// resyncChunk is the most of a RESYNC answer rendered at once.
const resyncChunk = 32 << 10

// serveResync handles RESYNC <token>: it streams the token's per-file
// received counts — one "F <idx> <got>" line per file with any bytes,
// then "END" — so a resuming client rebuilds its work queue at
// file/offset granularity instead of re-sending the epoch. The table is
// read a chunk of lines at a time, so no copy of its counts is made
// and its lock is not held across a write.
func (s *Server) serveResync(w *connWriter, fields []string) bool {
	if len(fields) != 2 {
		fmt.Fprintf(w, "ERR bad RESYNC\n")
		return false
	}
	if ft := s.lookup(fields[1]); ft != nil {
		b := make([]byte, 0, resyncChunk)
		for idx := 0; idx < len(ft.sizes); {
			b, idx = ft.appendProgress(b[:0], idx)
			w.Write(b)
		}
	}
	fmt.Fprintf(w, "END\n")
	return true
}

// serveDataFramed discards a framed data stream: FILE <idx> <off>
// <len> headers each followed by exactly len payload bytes, credited
// to the token's file table. Each frame looks the token up afresh, so a
// stripe outlives a table its client re-registered (after a loss) and
// is cut at its next frame by a CLOSE. An unknown token, or a malformed
// or out-of-manifest frame, drops the connection; bytes that arrived
// before the corruption stay credited, and other tokens' tables are
// untouched. A truncated final frame (stripe killed mid-file) credits
// what arrived — the client resends the deficit after reconciling.
// Draining a frame allocates nothing: a bulk transfer's one file is a
// frame per 4 MiB, and garbage at that rate would grow the heap. br
// comes a line long (handle) and stays so while the truncating receive
// drops payloads: a header read then copies the header and at most a
// line's worth of payload into userspace, and a small file's payload
// otherwise stays in the kernel. The copying drain (a sink, or a
// connection the truncating receive refuses) copies every payload byte
// anyway, so it widens br, and one read takes in the small frames
// behind a header, as the control connection's reader does.
func (s *Server) serveDataFramed(conn net.Conn, br *bufio.Reader, token string) {
	if s.lookup(token) == nil {
		return
	}
	m := s.metrics.Load()
	// The frame in progress, which credit counts into: one closure for
	// the connection's life.
	var ft *fileTable
	var sink *fileSink
	var idx int
	var rem int64
	credit := func(k int64) {
		rem -= k
		m.AddBytes(k)
		if ft.add(idx, k) && sink != nil {
			sink.closeIdx(idx)
		}
		ft.touch()
	}
	// The copying path's buffer, taken from the pool only by a sink or a
	// connection the truncating receive refuses.
	var bufp *[]byte
	defer func() {
		if bufp != nil {
			fileDrainPool.Put(bufp)
		}
	}()
	// Discard mode tries the truncating receive first: payload bytes
	// the kernel can drop in place never cross into userspace. One
	// rejected attempt (wrapped connections, old kernels, the portable
	// build) disables it for the connection's lifetime.
	trunc := truncDrain(conn, credit)
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return
		}
		var off, length int64
		var ok bool
		if idx, off, length, ok = parseFrame(line); !ok {
			s.logf("gridftp: bad frame header %q", line)
			return
		}
		if ft = s.lookup(token); ft == nil || idx >= len(ft.sizes) {
			s.logf("gridftp: frame for file %d outside manifest", idx)
			return
		}
		if sink = ft.sink.Load(); sink != nil {
			// A persisted frame must stay inside the manifest size:
			// a hostile offset would otherwise make pwrite allocate
			// an arbitrarily large sparse file. (The check is
			// overflow-safe: off <= sz first, then length against the
			// non-negative remainder.) Discard mode keeps the lenient
			// behavior — bytes past the size count toward nothing.
			if sz := ft.sizes[idx]; off > sz || length > sz-off {
				s.logf("gridftp: sink frame for file %d outside its %d bytes", idx, sz)
				return
			}
		}
		if (sink != nil || trunc == nil) && br.Size() < wideReader {
			br = widen(br, conn)
		}
		rem = length
		for pos := off; rem > 0; {
			if b := int64(br.Buffered()); sink == nil && b > 0 {
				// What the header read pulled in leaves the reader
				// without another copy.
				n, _ := br.Discard(int(min(rem, b)))
				credit(int64(n))
				continue
			}
			if sink == nil && trunc != nil {
				ok, terr := trunc(rem)
				if ok {
					if terr != nil {
						return
					}
					continue
				}
				trunc = nil
			}
			if bufp == nil {
				bufp = fileDrainPool.Get().(*[]byte)
			}
			n, err := br.Read((*bufp)[:min(rem, int64(len(*bufp)))])
			if n > 0 {
				if sink != nil {
					if werr := sink.writeAt(idx, (*bufp)[:n], pos); werr != nil {
						// Nothing persisted: leave the read uncredited,
						// so receiver truth stays what is actually on
						// disk and the client resends the deficit after
						// reconciling.
						s.logf("gridftp: sink write: %v", werr)
						return
					}
				}
				pos += int64(n)
				credit(int64(n))
			}
			if err != nil {
				return
			}
		}
	}
}

// parseFrame parses a "FILE <idx> <off> <len>" header line — single
// spaces, unsigned decimals — without allocating.
func parseFrame(line []byte) (idx int, off, n int64, ok bool) {
	var v [3]int64
	rest, ok := bytes.CutPrefix(bytes.TrimRight(line, "\r\n"), []byte("FILE "))
	for i := 0; ok && i < len(v); i++ {
		var field []byte
		field, rest, _ = bytes.Cut(rest, []byte(" "))
		v[i], ok = parseDecimal(field, 19)
	}
	// Every field is checked for the wrap: a negative idx would index
	// the file table.
	ok = ok && len(rest) == 0 && 0 <= v[0] && v[0] <= math.MaxInt32 && v[1] >= 0 && v[2] >= 0
	return int(v[0]), v[1], v[2], ok
}

// fileDrainChunk is the framed data plane's receive buffer size. The
// zero-copy pump delivers whole multi-MiB leases in one kernel burst;
// draining them 64 KiB at a time costs 16x the read syscalls and, on
// small hosts, lets the receive queue back up far enough to stall the
// sender's ACK clock. A 1 MiB drain keeps the receiver ahead of
// sendfile-sized bursts at one pooled buffer per active stream.
const fileDrainChunk = 1 << 20

// fileDrainPool recycles the copying drain's receive buffers.
var fileDrainPool = sync.Pool{
	New: func() any {
		buf := make([]byte, fileDrainChunk)
		return &buf
	},
}
