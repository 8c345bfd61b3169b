package gridftp

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dstune/internal/obs"
)

// maxLineLen bounds protocol header lines.
const maxLineLen = 256

// defaultTokenTTL is the idle expiry for token counters: a token that
// sees no data and no control verb for this long is released, so
// long-lived servers don't accumulate counters from clients that never
// sent CLOSE.
const defaultTokenTTL = 5 * time.Minute

// tokenCounter tracks one transfer token's received bytes and its
// last activity, for idle expiry. Dataset transfers additionally hang
// their per-file table here, so the TTL janitor frees both together.
type tokenCounter struct {
	n          atomic.Int64
	lastActive atomic.Int64 // unix nanos
	files      atomic.Pointer[fileTable]
}

// touch records activity on the token, deferring its idle expiry.
func (tc *tokenCounter) touch() { tc.lastActive.Store(time.Now().UnixNano()) }

// releaseSink closes any persistence handles hung off the token's
// file table — the token is going away (CLOSE, TTL expiry, shutdown).
func (tc *tokenCounter) releaseSink() {
	if ft := tc.files.Load(); ft != nil {
		ft.setSink(nil)
	}
}

// Server is the receiving end: it accepts control and data
// connections, discards transferred bytes, and counts them per token.
type Server struct {
	ln     net.Listener
	logf   func(format string, args ...any)
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

	// metrics holds the observation instruments; nil disables them.
	// Atomic so SetObserver is safe while traffic is flowing.
	metrics atomic.Pointer[obs.ServerMetrics]

	mu       sync.Mutex
	received map[string]*tokenCounter
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
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
		ln:       ln,
		logf:     func(string, ...any) {},
		done:     make(chan struct{}),
		received: make(map[string]*tokenCounter),
		conns:    make(map[net.Conn]struct{}),
	}
	s.tokenTTL.Store(int64(defaultTokenTTL))
	s.wg.Add(2)
	go s.acceptLoop()
	go s.janitor()
	return s
}

// SetLogger installs a diagnostic logger (e.g. log.Printf). The
// default discards.
func (s *Server) SetLogger(logf func(format string, args ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s.logf = logf
}

// SetTokenTTL sets the idle expiry for token counters; non-positive
// disables expiry. The default is 5 minutes.
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
	// counters themselves stay queryable after Close.
	s.mu.Lock()
	for _, tc := range s.received {
		tc.releaseSink()
	}
	s.mu.Unlock()
	return err
}

// Received returns the bytes received so far for token.
func (s *Server) Received(token string) int64 {
	if tc := s.lookup(token); tc != nil {
		return tc.n.Load()
	}
	return 0
}

// Tokens returns the number of live token counters.
func (s *Server) Tokens() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.received)
}

// lookup returns token's live counter, touched, or nil when the token
// is unknown. Everything but START and MANIFEST goes through
// here: in particular data connections never create tokens, so a
// stripe whose header is parsed after CLOSE (or after the idle TTL)
// is dropped instead of resurrecting a counter nobody will release.
func (s *Server) lookup(token string) *tokenCounter {
	s.mu.Lock()
	tc := s.received[token]
	s.mu.Unlock()
	if tc != nil {
		tc.touch()
	}
	return tc
}

// counter returns (creating if needed) the byte counter for token —
// the START and MANIFEST path.
func (s *Server) counter(token string) *tokenCounter {
	s.mu.Lock()
	tc, ok := s.received[token]
	if !ok {
		tc = new(tokenCounter)
		s.received[token] = tc
	}
	live := len(s.received)
	s.mu.Unlock()
	s.metrics.Load().SetTokens(live)
	tc.touch()
	return tc
}

// dropToken releases token's counter (the CLOSE command) and any sink
// handles hung off it.
func (s *Server) dropToken(token string) {
	s.mu.Lock()
	tc := s.received[token]
	delete(s.received, token)
	live := len(s.received)
	s.mu.Unlock()
	if tc != nil {
		tc.releaseSink()
	}
	s.metrics.Load().SetTokens(live)
}

// janitorTick is the period of the idle-token sweep.
const janitorTick = 100 * time.Millisecond

// expireTokens drops counters idle for longer than the TTL.
func (s *Server) expireTokens(now time.Time) {
	ttl := time.Duration(s.tokenTTL.Load())
	if ttl <= 0 {
		return
	}
	cutoff := now.Add(-ttl).UnixNano()
	expired := 0
	var dropped []*tokenCounter
	s.mu.Lock()
	for tok, tc := range s.received {
		if tc.lastActive.Load() < cutoff {
			delete(s.received, tok)
			dropped = append(dropped, tc)
			expired++
		}
	}
	live := len(s.received)
	s.mu.Unlock()
	for _, tc := range dropped {
		tc.releaseSink()
	}
	if expired > 0 {
		m := s.metrics.Load()
		m.Expired(expired)
		m.SetTokens(live)
	}
}

// janitor expires idle token counters until Close.
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

// handle serves one connection: the first line selects data mode
// (DATA for the bulk stream, DATAF for framed file segments) or, for
// anything else, control mode.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 32<<10)

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
	case "DATA":
		if len(fields) != 2 {
			fmt.Fprintf(conn, "ERR bad DATA header\n")
			return
		}
		s.serveData(conn, br, fields[1])
	case "DATAF":
		if len(fields) != 2 {
			fmt.Fprintf(conn, "ERR bad DATAF header\n")
			return
		}
		s.serveDataFramed(conn, br, fields[1])
	default:
		s.serveControl(conn, br, fields)
	}
}

// bulkDrainSlab is how much of the bulk stream one truncating receive
// asks the kernel to drop. The stream has no frame length to ask for,
// so the drain asks for a slab at a time; the kernel hands over what is
// queued, and the size only has to be far above any receive queue.
const bulkDrainSlab = 1 << 30

// serveData discards the connection's byte stream into the token's
// counter; an unknown token drops the connection. Payload the header
// read pulled into br is credited from there; the socket's remainder
// takes the truncating receive — the kernel drops it in place, so the
// receiver makes no memory pass — until one rejected attempt (wrapped
// connections, the portable build) hands the rest of the connection's
// life to the copying loop. Either way the token is credited with
// exactly what the kernel handed over, also for a stream that dies
// mid-payload.
func (s *Server) serveData(conn net.Conn, br *bufio.Reader, token string) {
	tc := s.lookup(token)
	if tc == nil {
		return
	}
	m := s.metrics.Load()
	credit := func(k int64) {
		m.AddBytes(k)
		tc.n.Add(k)
		tc.touch()
	}
	if n, _ := br.Discard(br.Buffered()); n > 0 {
		credit(int64(n))
	}
	for {
		ok, err := discardPayload(conn, bulkDrainSlab, credit)
		if !ok {
			break
		}
		if err != nil {
			return
		}
	}
	bufp := fileDrainPool.Get().(*[]byte)
	defer fileDrainPool.Put(bufp)
	for {
		n, err := conn.Read(*bufp)
		credit(int64(n))
		if err != nil {
			return
		}
	}
}

// serveControl answers the six control verbs — START, SETTLE, CLOSE and
// the file plane's MANIFEST, OPEN and RESYNC — and nothing else; the
// first command is already parsed, further ones may follow on the same
// connection. Responses go
// through a locked writer because the ACKs of pipelined OPENs are
// written asynchronously after the injected file latency.
func (s *Server) serveControl(conn net.Conn, br *bufio.Reader, first []string) {
	w := &connWriter{c: conn}
	fields := first
	for {
		switch fields[0] {
		case "START":
			// START <token> arms an epoch, cold or warm: it creates the
			// token (or touches it, or re-creates one the idle TTL
			// expired) and answers with the count it holds now.
			if len(fields) != 2 {
				fmt.Fprintf(w, "ERR bad START\n")
				return
			}
			fmt.Fprintf(w, "OK %d\n", s.counter(fields[1]).n.Load())
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
			if !s.serveOpen(w, fields) {
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
		line, err := readLine(br)
		if err != nil {
			return
		}
		fields = strings.Fields(line)
		if len(fields) == 0 {
			return
		}
	}
}

// The three ways a SETTLE ends short of its expected count, and how
// often the wait looks. settleBound must stay well inside the client's
// control-exchange deadline (ClientConfig.DialTimeout, 5 s by default).
const (
	settleQuiet = 5 * time.Millisecond   // the counter has not moved for this long: the rest is lost
	settleBound = 500 * time.Millisecond // answer regardless
	settlePoll  = 250 * time.Microsecond
)

// serveSettle handles SETTLE <token> <expect>, the end-of-epoch read of
// receiver truth: SETTLED <bytes> <filesDone> <useful> — the token's
// aggregate counter and, for a dataset transfer, its file table's
// completed count and duplicate-free bytes — sent as soon as the
// counter reaches expect (what the client knows it has written), once
// it has stopped moving (the difference died with a stripe), or after
// settleBound. The client thus learns a settled count in one round
// trip instead of polling for two that agree; expect 0 is met at once,
// which is how Client.ServerReceived reads the count. An unknown token
// answers zeros at once.
func (s *Server) serveSettle(w io.Writer, fields []string) bool {
	if len(fields) != 3 {
		fmt.Fprintf(w, "ERR bad SETTLE\n")
		return false
	}
	expect, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil || expect < 0 {
		fmt.Fprintf(w, "ERR bad SETTLE count\n")
		return false
	}
	var bytes, useful int64
	var done int
	if tc := s.lookup(fields[1]); tc != nil {
		bytes = s.awaitCount(tc, expect)
		// The framed drain credits a file before the aggregate, so the
		// table read here holds every byte counted in bytes.
		if ft := tc.files.Load(); ft != nil {
			done, useful = ft.stats()
		}
	}
	fmt.Fprintf(w, "SETTLED %d %d %d\n", bytes, done, useful)
	return true
}

// awaitCount returns tc's byte count once it has reached expect, has
// not moved for settleQuiet, or settleBound (or the server's life) is
// over.
func (s *Server) awaitCount(tc *tokenCounter, expect int64) int64 {
	n := tc.n.Load()
	if n >= expect {
		return n
	}
	tick := time.NewTicker(settlePoll)
	defer tick.Stop()
	began := time.Now()
	moved := began
	for {
		select {
		case <-s.done:
			return n
		case <-tick.C:
		}
		// The clock, not the tick's own time: a tick can sit in the
		// channel while this goroutine waits for a processor, and the
		// quiet window must be measured between two looks.
		now := time.Now()
		if cur := tc.n.Load(); cur != n {
			n, moved = cur, now
		}
		if n >= expect || now.Sub(moved) >= settleQuiet || now.Sub(began) >= settleBound {
			return n
		}
	}
}

// readLine reads one \n-terminated line, enforcing the length bound.
func readLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return "", err
	}
	if len(line) > maxLineLen {
		return "", fmt.Errorf("%w: line too long (%d bytes)", ErrProtocol, len(line))
	}
	return strings.TrimRight(line, "\r\n"), nil
}
