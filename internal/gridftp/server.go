package gridftp

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"

	"dstune/internal/obs"
)

// maxLineLen bounds protocol header lines.
const maxLineLen = 256

// defaultTokenTTL is the idle expiry for tokens: a token that sees no
// data and no control verb for this long is released, so long-lived
// servers don't accumulate file tables from clients that never sent
// CLOSE.
const defaultTokenTTL = 5 * time.Minute

// Server is the receiving end: it accepts control and data
// connections, discards transferred bytes, and credits them to the
// token's file table.
type Server struct {
	ln     net.Listener
	closed atomic.Bool
	done   chan struct{}

	tokenTTL atomic.Int64 // nanoseconds; <= 0 disables expiry
	sockBuf  atomic.Int64 // kernel socket buffer bytes; <= 0 keeps OS default

	// fileLatency delays each OPEN's ACK (see SetFileLatency); the
	// fault-injection hook for per-file handshake latency.
	fileLatency atomic.Int64

	// sinkRoot, when set, is the directory under which framed file
	// payloads are persisted for tokens whose MANIFEST carries the SINK
	// flag (per-token subdirectories, index-named files); nil discards
	// payloads (the default).
	sinkRoot atomic.Pointer[string]

	// logger is the diagnostic logger (see SetLogger); nil discards.
	logger atomic.Pointer[func(format string, args ...any)]

	// metrics holds the observation instruments; nil disables them.
	// Atomic so SetObserver is safe while traffic is flowing.
	metrics atomic.Pointer[obs.ServerMetrics]

	mu     sync.Mutex
	tokens map[string]*fileTable
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// Serve starts a server listening on addr (e.g. "127.0.0.1:0") and
// begins accepting connections. Close shuts it down.
func Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return ServeListener(ln), nil
}

// ServeListener starts a server accepting on a caller-supplied
// listener — the hook for wrapped listeners such as
// faultnet.Injector.Listen. Close closes ln.
func ServeListener(ln net.Listener) *Server {
	s := &Server{
		ln:     ln,
		done:   make(chan struct{}),
		tokens: make(map[string]*fileTable),
		conns:  make(map[net.Conn]struct{}),
	}
	s.tokenTTL.Store(int64(defaultTokenTTL))
	s.wg.Add(2)
	go s.acceptLoop()
	go s.janitor()
	return s
}

// SetLogger installs a diagnostic logger (e.g. log.Printf); nil
// discards (the default). Safe to call while serving.
func (s *Server) SetLogger(logf func(format string, args ...any)) {
	if logf == nil {
		s.logger.Store(nil)
		return
	}
	s.logger.Store(&logf)
}

// logf logs through the installed logger, if any.
func (s *Server) logf(format string, args ...any) {
	if l := s.logger.Load(); l != nil {
		(*l)(format, args...)
	}
}

// SetTokenTTL sets the idle expiry for tokens; non-positive disables
// expiry. The default is 5 minutes.
func (s *Server) SetTokenTTL(d time.Duration) { s.tokenTTL.Store(int64(d)) }

// SetSink enables payload persistence: framed file payloads of tokens
// that request it (the SINK flag on the client's MANIFEST,
// ClientConfig.RequestSink) are written under dir — one subdirectory
// per token, one index-named file per manifest entry — instead of
// being discarded. Empty disables (the default). Safe to call while
// serving; tokens that already negotiated a sink keep it.
func (s *Server) SetSink(dir string) {
	if dir == "" {
		s.sinkRoot.Store(nil)
		return
	}
	s.sinkRoot.Store(&dir)
}

// sinkDir returns the configured sink root, or "".
func (s *Server) sinkDir() string {
	if p := s.sinkRoot.Load(); p != nil {
		return *p
	}
	return ""
}

// SetObserver registers the server's metrics (connections, received
// bytes, live and expired tokens) with o; see OBSERVABILITY.md. A nil
// o detaches them. Safe to call while the server is live.
func (s *Server) SetObserver(o *obs.Observer) {
	s.metrics.Store(o.ServerMetrics())
}

// SetSockBuf sizes the kernel socket buffers
// (SetReadBuffer/SetWriteBuffer) of subsequently accepted
// connections, in bytes; non-positive keeps the OS default. Wrapped
// listeners whose connections do not expose the setters are left
// alone.
func (s *Server) SetSockBuf(bytes int) { s.sockBuf.Store(int64(bytes)) }

// Addr returns the server's listen address, for clients to dial.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes all live connections, and waits for
// the handlers to drain.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	close(s.done)
	err := s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	// Handlers have drained: release every token's sink handles. The
	// file tables themselves stay queryable after Close.
	s.mu.Lock()
	for _, ft := range s.tokens {
		ft.setSink(nil)
	}
	s.mu.Unlock()
	return err
}

// lookup returns token's file table, touched, or nil when the token is
// unknown. Everything but MANIFEST goes through here: in particular
// data connections never create tokens, so a stripe whose header is
// parsed after CLOSE (or after the idle TTL) is dropped instead of
// resurrecting a table nobody will release.
func (s *Server) lookup(token string) *fileTable {
	s.mu.Lock()
	ft := s.tokens[token]
	s.mu.Unlock()
	if ft != nil {
		ft.touch()
	}
	return ft
}

// dropToken releases token's file table (the CLOSE command) and its
// sink handles.
func (s *Server) dropToken(token string) {
	s.mu.Lock()
	ft := s.tokens[token]
	delete(s.tokens, token)
	live := len(s.tokens)
	s.mu.Unlock()
	if ft != nil {
		ft.setSink(nil)
	}
	s.metrics.Load().SetTokens(live)
}

// janitorTick is the period of the idle-token sweep.
const janitorTick = 100 * time.Millisecond

// expireTokens drops tokens idle for longer than the TTL.
func (s *Server) expireTokens(now time.Time) {
	ttl := time.Duration(s.tokenTTL.Load())
	if ttl <= 0 {
		return
	}
	cutoff := now.Add(-ttl).UnixNano()
	expired := 0
	var dropped []*fileTable
	s.mu.Lock()
	for tok, ft := range s.tokens {
		if ft.lastActive.Load() < cutoff {
			delete(s.tokens, tok)
			dropped = append(dropped, ft)
			expired++
		}
	}
	live := len(s.tokens)
	s.mu.Unlock()
	for _, ft := range dropped {
		ft.setSink(nil)
	}
	if expired > 0 {
		m := s.metrics.Load()
		m.Expired(expired)
		m.SetTokens(live)
	}
}

// janitor expires idle tokens until Close.
func (s *Server) janitor() {
	defer s.wg.Done()
	tick := time.NewTicker(janitorTick)
	defer tick.Stop()
	for {
		select {
		case <-s.done:
			return
		case now := <-tick.C:
			s.expireTokens(now)
		}
	}
}

// track registers a live connection for shutdown; the returned func
// unregisters it. Registration must happen before the connection's
// handler starts: if it raced with Close, the connection is closed
// here so the handler cannot block a Close that already swept conns.
func (s *Server) track(c net.Conn) func() {
	s.mu.Lock()
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	if s.closed.Load() {
		c.Close()
	}
	return func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}
}

// acceptLoop accepts connections until the listener closes. Each
// connection is tracked before its handler is spawned (see track).
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if !s.closed.Load() {
				s.logf("gridftp: accept: %v", err)
			}
			return
		}
		s.metrics.Load().Conn()
		setSockBuf(conn, int(s.sockBuf.Load()))
		untrack := s.track(conn)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer untrack()
			s.handle(conn)
		}()
	}
}

// handle serves one connection: a first line of DATAF makes it a data
// connection carrying framed file segments, anything else a control
// connection. The first line is read through a reader a line long,
// which a data connection keeps while it drops payloads in the kernel
// (see serveDataFramed); a control connection reads on through a wide
// one.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, maxLineLen)

	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	line, err := readLine(br)
	if err != nil {
		s.logf("gridftp: header: %v", err)
		return
	}
	conn.SetReadDeadline(time.Time{})

	fields := strings.Fields(line)
	if len(fields) == 0 {
		return
	}
	switch fields[0] {
	case "DATAF":
		if len(fields) != 2 {
			fmt.Fprintf(conn, "ERR bad DATAF header\n")
			return
		}
		s.serveDataFramed(conn, br, fields[1])
	default:
		s.serveControl(conn, widen(br, conn), []byte(line))
	}
}

// widen returns a 32 KiB reader over conn that begins with what br
// holds, so a connection that outgrows its line-long reader keeps its
// place in the stream.
func widen(br *bufio.Reader, conn net.Conn) *bufio.Reader {
	var r io.Reader = conn
	if rest, _ := br.Peek(br.Buffered()); len(rest) > 0 {
		r = io.MultiReader(bytes.NewReader(rest), conn)
	}
	return bufio.NewReaderSize(r, wideReader)
}

// wideReader is the size of a reader that reads ahead: the control
// connection's, and a data connection's on the copying drain, where a
// header read that takes the frames behind it saves read syscalls.
const wideReader = 32 << 10

// serveControl answers the six control verbs — START, SETTLE, CLOSE,
// MANIFEST, OPEN and RESYNC — and nothing else, the DATA header of the
// retired raw byte stream included; first is the connection's first
// line, further commands may follow on the same connection. An OPEN is
// parsed in place, any other line by fields. Answers are batched (see
// connWriter), so k pipelined OPENs cost one read and one write;
// whatever is still batched leaves when the connection ends.
func (s *Server) serveControl(conn net.Conn, br *bufio.Reader, first []byte) {
	w := &connWriter{bw: bufio.NewWriter(conn)}
	defer w.Flush()
	var tok string // the last OPEN's token, so a run of them allocates nothing
	var err error
	for line := first; err == nil; line, err = w.next(br) {
		verb, args := cutField(line)
		if len(verb) == 0 {
			return
		}
		var fields []string
		if string(verb) != "OPEN" {
			fields = strings.Fields(string(line))
		}
		switch string(verb) {
		case "START":
			// START <token> arms an epoch, cold or warm: it touches the
			// token and answers with its duplicate-free total, or NONE
			// when the server holds no such token — never registered,
			// closed, or expired by the idle TTL.
			if len(fields) != 2 {
				fmt.Fprintf(w, "ERR bad START\n")
				return
			}
			if ft := s.lookup(fields[1]); ft != nil {
				_, useful := ft.stats()
				fmt.Fprintf(w, "OK %d\n", useful)
			} else {
				fmt.Fprintf(w, "NONE\n")
			}
		case "SETTLE":
			if !s.serveSettle(w, fields) {
				return
			}
		case "CLOSE":
			if len(fields) != 2 {
				fmt.Fprintf(w, "ERR bad CLOSE\n")
				return
			}
			s.dropToken(fields[1])
			fmt.Fprintf(w, "OK\n")
		case "MANIFEST":
			if !s.serveManifest(w, br, fields) {
				return
			}
		case "OPEN":
			token, idx, bad := parseOpen(args)
			if bad != "" {
				io.WriteString(w, bad)
				return
			}
			if string(token) != tok {
				tok = string(token)
			}
			if !s.serveOpen(w, tok, idx) {
				return
			}
		case "RESYNC":
			if !s.serveResync(w, fields) {
				return
			}
		default:
			fmt.Fprintf(w, "ERR unknown command %q\n", fields[0])
			return
		}
	}
}

// parseOpen parses an OPEN's arguments, "<token> <idx>", without
// allocating. bad, when not empty, is the ERR line that answers them:
// the wrong count of fields, or an index that is no unsigned decimal
// within int32.
func parseOpen(args []byte) (token []byte, idx int, bad string) {
	token, args = cutField(args)
	digits, args := cutField(args)
	if extra, _ := cutField(args); len(digits) == 0 || len(extra) > 0 {
		return nil, 0, "ERR bad OPEN\n"
	}
	v, ok := parseDecimal(digits, 19)
	if !ok || v < 0 || v > math.MaxInt32 {
		return nil, 0, "ERR bad OPEN index\n"
	}
	return token, int(v), ""
}

// cutField returns b's first field and what follows it, splitting at
// white space as strings.Fields does, without allocating.
func cutField(b []byte) (field, rest []byte) {
	b = bytes.TrimLeftFunc(b, unicode.IsSpace)
	if i := bytes.IndexFunc(b, unicode.IsSpace); i >= 0 {
		return b[:i], b[i:]
	}
	return b, nil
}

// The three ways a SETTLE ends short of its expected total, and how
// often the wait looks. settleBound must stay well inside the client's
// control-exchange deadline (ClientConfig.DialTimeout, 5 s by default).
const (
	settleQuiet = 5 * time.Millisecond   // the total has not moved for this long: the rest is lost
	settleBound = 500 * time.Millisecond // answer regardless
	settlePoll  = 250 * time.Microsecond
)

// serveSettle handles SETTLE <token> <expect>, the end-of-epoch read of
// receiver truth: SETTLED <files> <useful> — the token's completed-file
// count and duplicate-free byte total — sent as soon as the total
// reaches expect (what the client expects it to hold once its written
// bytes are in), once it has stopped moving (the difference died with a
// stripe), or after settleBound. The client thus learns a settled total
// in one round trip instead of polling for two that agree; expect 0 is
// met at once, which is how Client.ServerReceived reads it. An unknown
// token answers zeros at once.
func (s *Server) serveSettle(w *connWriter, fields []string) bool {
	if len(fields) != 3 {
		fmt.Fprintf(w, "ERR bad SETTLE\n")
		return false
	}
	expect, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil || expect < 0 {
		fmt.Fprintf(w, "ERR bad SETTLE count\n")
		return false
	}
	var done int
	var useful int64
	if ft := s.lookup(fields[1]); ft != nil {
		// The answers batched so far must not wait out this one.
		w.Flush()
		done, useful = s.awaitUseful(ft, expect)
	}
	fmt.Fprintf(w, "SETTLED %d %d\n", done, useful)
	return true
}

// awaitUseful returns ft's done count and useful total once the total
// has reached expect, has not moved for settleQuiet, or settleBound (or
// the server's life) is over.
func (s *Server) awaitUseful(ft *fileTable, expect int64) (done int, useful int64) {
	done, useful = ft.stats()
	if useful >= expect {
		return done, useful
	}
	tick := time.NewTicker(settlePoll)
	defer tick.Stop()
	began := time.Now()
	moved := began
	for {
		select {
		case <-s.done:
			return done, useful
		case <-tick.C:
		}
		// The clock, not the tick's own time: a tick can sit in the
		// channel while this goroutine waits for a processor, and the
		// quiet window must be measured between two looks.
		now := time.Now()
		last := useful
		if done, useful = ft.stats(); useful != last {
			moved = now
		}
		if useful >= expect || now.Sub(moved) >= settleQuiet || now.Sub(began) >= settleBound {
			return done, useful
		}
	}
}

// readLine reads one \n-terminated line, enforcing the length bound.
func readLine(br *bufio.Reader) (string, error) {
	line, err := readSlice(br)
	return string(line), err
}

// holdsLine reports whether br has a whole line buffered, so reading it
// waits on nothing.
func holdsLine(br *bufio.Reader) bool {
	b, _ := br.Peek(br.Buffered())
	return bytes.IndexByte(b, '\n') >= 0
}

// readSlice is readLine without the copy: the line, trimmed, is valid
// until br's next read. Every reader here holds at least maxLineLen
// bytes, so one that fills without a line end has read a line too long.
func readSlice(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull || len(line) > maxLineLen {
		return nil, fmt.Errorf("%w: line too long (over %d bytes)", ErrProtocol, maxLineLen)
	}
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

// parseDecimal parses b as an unsigned decimal of one to max digits
// without allocating. Nineteen digits can wrap past MaxInt64 to a
// negative value, which callers allowing that many must refuse.
func parseDecimal(b []byte, max int) (v int64, ok bool) {
	ok = len(b) > 0 && len(b) <= max
	for _, c := range b {
		ok = ok && '0' <= c && c <= '9'
		v = v*10 + int64(c-'0')
	}
	return v, ok
}
