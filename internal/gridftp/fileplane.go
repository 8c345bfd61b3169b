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
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxManifestFiles bounds the file count one MANIFEST may register,
// so a hostile client cannot make the server allocate an unbounded
// file table.
const maxManifestFiles = 1 << 20

// fileTable is a token's server-side per-file state, registered by
// MANIFEST and fed by framed data connections. It hangs off the
// token's counter, so the idle-TTL janitor frees it with the token.
type fileTable struct {
	mu     sync.Mutex
	sizes  []int64
	got    []int64 // received bytes per file (duplicates included)
	done   []bool
	nDone  int
	useful int64 // sum of min(got, size): duplicate-free progress

	// sink, when non-nil, persists the table's payloads (MANIFEST's SINK
	// flag); nil discards them.
	sink atomic.Pointer[fileSink]
}

// newFileTable builds a table for sizes; zero-length files are done
// on arrival.
func newFileTable(sizes []int64) *fileTable {
	ft := &fileTable{
		sizes: sizes,
		got:   make([]int64, len(sizes)),
		done:  make([]bool, len(sizes)),
	}
	for i, sz := range sizes {
		if sz <= 0 {
			ft.done[i] = true
			ft.nDone++
		}
	}
	return ft
}

// add credits n received bytes to file idx, maintaining the done count
// and the duplicate-free useful total (got beyond the file's size —
// a resend after a lost stripe — counts toward neither). It reports
// whether this credit completed the file.
func (ft *fileTable) add(idx int, n int64) (completed bool) {
	ft.mu.Lock()
	oldUseful := min(ft.got[idx], ft.sizes[idx])
	ft.got[idx] += n
	ft.useful += min(ft.got[idx], ft.sizes[idx]) - oldUseful
	if !ft.done[idx] && ft.got[idx] >= ft.sizes[idx] {
		ft.done[idx] = true
		ft.nDone++
		completed = true
	}
	ft.mu.Unlock()
	return completed
}

// sizeOf returns file idx's manifest size.
func (ft *fileTable) sizeOf(idx int) int64 {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return ft.sizes[idx]
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

// progress returns a copy of the per-file received counts.
func (ft *fileTable) progress() []int64 {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return append([]int64(nil), ft.got...)
}

// count returns the number of files in the table.
func (ft *fileTable) count() int {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return len(ft.sizes)
}

// SetFileLatency injects a delay between a pipelined OPEN request and
// its ACK, simulating the per-file handshake round trip that the
// pipelining depth (pp) hides. Pipelined OPENs are delayed
// concurrently — pp outstanding requests all ACK one latency after
// arrival — so the admission rate is pp/latency files per second.
// Zero (the default) ACKs immediately. Safe to call while serving.
func (s *Server) SetFileLatency(d time.Duration) { s.fileLatency.Store(int64(d)) }

// fileTableFor returns the token's file table, or nil when no
// MANIFEST registered one.
func (s *Server) fileTableFor(token string) *fileTable {
	if tc := s.lookup(token); tc != nil {
		return tc.files.Load()
	}
	return nil
}

// registerManifest installs the file table for token and returns it. A
// re-sent manifest with the same file count keeps the existing table —
// a resumed session must not erase the server's per-file progress — and
// any other shape replaces it, releasing the replaced table's sink
// handles.
func (s *Server) registerManifest(token string, sizes []int64) *fileTable {
	tc := s.counter(token)
	old := tc.files.Load()
	if old != nil && old.count() == len(sizes) {
		return old
	}
	ft := newFileTable(sizes)
	tc.files.Store(ft)
	if old != nil {
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

// connWriter serializes line writes to a control connection, so the
// delayed ACKs of pipelined OPENs never interleave mid-line with a
// synchronous response.
type connWriter struct {
	mu sync.Mutex
	c  net.Conn
}

// Write implements io.Writer under the lock.
func (w *connWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.c.Write(p)
}

// serveManifest handles MANIFEST <token> <count> [SINK]: it reads count
// size lines from br and registers the token's file table; with the
// SINK flag it also switches the token's framed data plane from
// discarding payloads to persisting them under the server's sink root
// (Server.SetSink), idempotently for a token already sinking. Malformed
// input, or the flag on a server with no sink, gets an ERR and drops
// the connection; the token's existing state is never corrupted by a
// refused manifest.
func (s *Server) serveManifest(w io.Writer, br *bufio.Reader, fields []string) bool {
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
		line, err := readLine(br)
		if err != nil {
			return false
		}
		v, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
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

// serveOpen handles OPEN <token> <idx>: it validates the index
// against the token's manifest and schedules the ACK after the
// configured file latency. ACKs are concurrent across pipelined
// OPENs, writing through the locked writer.
func (s *Server) serveOpen(w *connWriter, fields []string) bool {
	if len(fields) != 3 {
		fmt.Fprintf(w, "ERR bad OPEN\n")
		return false
	}
	idx, err := strconv.Atoi(fields[2])
	if err != nil || idx < 0 {
		fmt.Fprintf(w, "ERR bad OPEN index\n")
		return false
	}
	ft := s.fileTableFor(fields[1])
	if ft == nil || idx >= ft.count() {
		fmt.Fprintf(w, "ERR OPEN outside manifest\n")
		return false
	}
	ack := func() { fmt.Fprintf(w, "ACK %d\n", idx) }
	if lat := time.Duration(s.fileLatency.Load()); lat > 0 {
		time.AfterFunc(lat, ack)
	} else {
		ack()
	}
	return true
}

// serveResync handles RESYNC <token>: it streams the token's per-file
// received counts — one "F <idx> <got>" line per file with any bytes,
// then "END" — so a resuming client rebuilds its work queue at
// file/offset granularity instead of re-sending the epoch.
func (s *Server) serveResync(w io.Writer, fields []string) bool {
	if len(fields) != 2 {
		fmt.Fprintf(w, "ERR bad RESYNC\n")
		return false
	}
	ft := s.fileTableFor(fields[1])
	if ft == nil {
		fmt.Fprintf(w, "END\n")
		return true
	}
	bw := bufio.NewWriter(w)
	for idx, got := range ft.progress() {
		if got > 0 {
			fmt.Fprintf(bw, "F %d %d\n", idx, got)
		}
	}
	fmt.Fprintf(bw, "END\n")
	return bw.Flush() == nil
}

// serveDataFramed discards a framed data stream: FILE <idx> <off>
// <len> headers each followed by exactly len payload bytes, credited
// to both the token's aggregate counter and its per-file table. An
// unknown token, or a malformed or
// out-of-manifest frame, drops the connection; bytes that arrived
// before the corruption stay counted, and other tokens' tables are
// untouched. A truncated final frame (stripe killed mid-file) credits
// what arrived — the client resends the deficit after reconciling.
// Draining a frame allocates nothing: a bulk transfer's one file is a
// frame per 4 MiB, and garbage at that rate would grow the heap.
func (s *Server) serveDataFramed(conn net.Conn, br *bufio.Reader, token string) {
	tc := s.lookup(token)
	if tc == nil {
		return
	}
	m := s.metrics.Load()
	// The frame in progress, which credit counts into. It is one closure
	// for the connection's life, and the file is credited before the
	// aggregate: SETTLE waits on the aggregate and then reads the table,
	// which must not be behind it.
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
		tc.n.Add(k)
		tc.touch()
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
		if ft = tc.files.Load(); ft == nil || idx >= ft.count() {
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
			if sz := ft.sizeOf(idx); off > sz || length > sz-off {
				s.logf("gridftp: sink frame for file %d outside its %d bytes", idx, ft.sizeOf(idx))
				return
			}
		}
		rem = length
		for pos := off; rem > 0; {
			if b := int64(br.Buffered()); sink == nil && b > 0 {
				// What the header read pulled in leaves the reader
				// without a copy.
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
		ok = len(field) > 0 && len(field) <= 19
		for _, c := range field {
			ok = ok && '0' <= c && c <= '9'
			v[i] = v[i]*10 + int64(c-'0') // 19 digits past MaxInt64 wrap negative
		}
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
