package gridftp

import (
	"bufio"
	"cmp"
	"context"
	"fmt"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dstune/internal/dataset"
	"dstune/internal/faultnet"
	"dstune/internal/xfer"
)

// waitReceived polls the server's useful total for token until it
// reads want (data connections credit asynchronously).
func waitReceived(t *testing.T, s *Server, token string, want int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for received(s, token) != want {
		if time.Now().After(deadline) {
			t.Fatalf("server counted %d bytes for %q, want %d", received(s, token), token, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// bulkStripe registers token the way a client given Bytes and no
// Dataset does — a manifest of one unbounded file — and opens a data
// connection for it whose DATAF header, the header of a frame of frame
// bytes and the frame's first payload bytes leave in one write: one
// segment on loopback, so the server's header read pulls payload into
// its line-long bufio.Reader, which the copying drain then widens
// around. It returns the connection with first bytes sent.
func bulkStripe(t *testing.T, s *Server, token string, frame int64, first int) net.Conn {
	t.Helper()
	ctrl, br := dialCtrl(t, s)
	roundTrip(t, ctrl, br, fmt.Sprintf("MANIFEST %s 1\n%d", token, unboundedBytes), "OK")
	conn, _ := dialCtrl(t, s)
	head := fmt.Sprintf("DATAF %s\nFILE 0 0 %d\n", token, frame)
	if _, err := conn.Write(append([]byte(head), make([]byte, first)...)); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestBulkDrainCountsToTheByte holds the drain's accounting of a bulk
// transfer's one-file frame where its two halves meet: payload that
// arrived with the headers (and sits in the bufio.Reader) plus the
// socket's remainder — dropped in the kernel where the build and the
// connection allow, copied otherwise — add up to exactly what was sent.
// It runs under both build tags.
func TestBulkDrainCountsToTheByte(t *testing.T) {
	// Far more than the server's header reader holds (a line), so one
	// write feeds both the reader's overshoot and the socket path; odd
	// on purpose.
	const first, rest = 100<<10 + 17, 3<<20 + 5

	t.Run("header-and-payload-in-one-segment", func(t *testing.T) {
		s := startServer(t)
		conn := bulkStripe(t, s, "tok", first+rest, first)
		if _, err := conn.Write(make([]byte, rest)); err != nil {
			t.Fatal(err)
		}
		conn.Close()
		waitReceived(t, s, "tok", first+rest)
	})

	t.Run("stripe-killed-mid-stream", func(t *testing.T) {
		s := startServer(t)
		conn := bulkStripe(t, s, "tok", first+rest, first)
		waitReceived(t, s, "tok", first)
		// An RST, not a FIN: the drain's receive fails instead of
		// reading EOF. What the kernel had handed over stays credited,
		// nothing is invented, and the handler lets go of the socket.
		conn.(*net.TCPConn).SetLinger(0)
		conn.Close()
		ctrl, br := dialCtrl(t, s)
		roundTrip(t, ctrl, br, fmt.Sprintf("SETTLE tok %d", first+rest), fmt.Sprintf("SETTLED 0 %d", first))
	})

	t.Run("wrapped-connection-falls-back", func(t *testing.T) {
		// A fault injector that never fires still wraps every accepted
		// connection, so the server sees no *net.TCPConn and the
		// truncating receive is refused.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		s := ServeListener(faultnet.New(faultnet.Config{ResetAfterBytes: 1 << 50}).Listen(ln))
		t.Cleanup(func() { s.Close() })
		conn := bulkStripe(t, s, "tok", first+rest, first)
		if _, err := conn.Write(make([]byte, rest)); err != nil {
			t.Fatal(err)
		}
		conn.Close()
		waitReceived(t, s, "tok", first+rest)
	})
}

// settleOnce sends one SETTLE and returns the answer and how long the
// server took to give it.
func settleOnce(t *testing.T, conn net.Conn, br *bufio.Reader, token string, expect int64) (string, time.Duration) {
	t.Helper()
	began := time.Now()
	if _, err := fmt.Fprintf(conn, "SETTLE %s %d\n", token, expect); err != nil {
		t.Fatal(err)
	}
	resp, err := readLine(br)
	if err != nil {
		t.Fatalf("SETTLE %s %d: %v", token, expect, err)
	}
	return resp, time.Since(began)
}

// TestSettleAnswersWhenTheCountIsIn pins each of the ways the server
// ends a SETTLE, on the wire against the real server.
func TestSettleAnswersWhenTheCountIsIn(t *testing.T) {
	const sent = 1<<20 + 3

	t.Run("at-once-when-already-there", func(t *testing.T) {
		s := startServer(t)
		data := bulkStripe(t, s, "tok", sent, sent)
		defer data.Close()
		waitReceived(t, s, "tok", sent)
		ctrl, br := dialCtrl(t, s)
		// The quiet window cannot end before settleQuiet, so one answer
		// faster than that proves this path does not wait for it; the
		// best of a few keeps a loaded machine from failing the test.
		best := time.Hour
		for i := 0; i < 5; i++ {
			resp, took := settleOnce(t, ctrl, br, "tok", sent-int64(i))
			if want := fmt.Sprintf("SETTLED 0 %d", sent); resp != want {
				t.Fatalf("got %q, want %q", resp, want)
			}
			best = min(best, took)
		}
		if best >= settleQuiet {
			t.Fatalf("fastest answer took %v; a count already reached must not wait out the %v quiet window", best, settleQuiet)
		}
	})

	t.Run("after-the-quiet-window-when-bytes-were-lost", func(t *testing.T) {
		s := startServer(t)
		data := bulkStripe(t, s, "tok", sent+4096, sent)
		waitReceived(t, s, "tok", sent)
		data.Close() // the stripe died owing the 4096 bytes expect counts on
		ctrl, br := dialCtrl(t, s)
		resp, took := settleOnce(t, ctrl, br, "tok", sent+4096)
		if want := fmt.Sprintf("SETTLED 0 %d", sent); resp != want {
			t.Fatalf("got %q, want %q", resp, want)
		}
		if took < settleQuiet || took >= settleBound {
			t.Fatalf("answered after %v, want the %v quiet window and not the %v bound", took, settleQuiet, settleBound)
		}
	})

	t.Run("by-the-bound-while-another-connection-writes", func(t *testing.T) {
		s := startServer(t)
		data := bulkStripe(t, s, "tok", 1<<50, sent)
		stop := make(chan struct{})
		writerDone := make(chan struct{})
		go func() {
			defer close(writerDone)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := data.Write(fileZeros); err != nil {
					return
				}
			}
		}()
		defer func() { close(stop); data.Close(); <-writerDone }()
		// The first bytes are credited before SETTLE goes out: a drain
		// that stalls past the quiet window before it has counted them
		// would be answered with less than the assertion below holds.
		deadline := time.Now().Add(2 * time.Second)
		for received(s, "tok") < sent {
			if time.Now().After(deadline) {
				t.Fatalf("server counted %d bytes for %q, want at least %d", received(s, "tok"), "tok", sent)
			}
			time.Sleep(time.Millisecond)
		}
		ctrl, br := dialCtrl(t, s)
		resp, took := settleOnce(t, ctrl, br, "tok", 1<<60)
		var done, useful int64
		if _, err := fmt.Sscanf(resp, "SETTLED %d %d", &done, &useful); err != nil || useful < sent {
			t.Fatalf("got %q, want SETTLED with at least %d bytes", resp, sent)
		}
		// Without the bound this writer would hold the answer back for
		// as long as it lives. (No lower limit beyond the quiet window:
		// on a loaded machine the drain itself can stall for one, and
		// answering then is the verb working.)
		if took < settleQuiet || took > 2*settleBound {
			t.Fatalf("answered after %v, want it by the %v bound", took, settleBound)
		}
	})

	t.Run("unknown-token", func(t *testing.T) {
		s := startServer(t)
		ctrl, br := dialCtrl(t, s)
		resp, took := settleOnce(t, ctrl, br, "ghost", 1<<20)
		if resp != "SETTLED 0 0" || took >= settleBound {
			t.Fatalf("got %q after %v, want SETTLED 0 0 without a wait", resp, took)
		}
		if n := liveTokens(s); n != 0 {
			t.Fatalf("SETTLE created a token: Tokens = %d", n)
		}
	})

	t.Run("file-plane-truth-rides-along", func(t *testing.T) {
		s := startServer(t)
		ctrl, br := dialCtrl(t, s)
		roundTrip(t, ctrl, br, "MANIFEST tokf 2\n1000\n1000", "OK")
		sendFrame(t, s, "tokf", 0, 0, 1000, 1000)
		sendFrame(t, s, "tokf", 0, 0, 1000, 1000) // a resend: not useful, so the 2400 asked for never comes
		sendFrame(t, s, "tokf", 1, 0, 400, 400)
		roundTrip(t, ctrl, br, "SETTLE tokf 2400", "SETTLED 1 1400")
	})

	t.Run("malformed", func(t *testing.T) {
		s := startServer(t)
		for _, bad := range []string{"SETTLE tok", "SETTLE tok 1 2", "SETTLE tok -1", "SETTLE tok many", "SETTLE tok 99999999999999999999"} {
			conn, br := dialCtrl(t, s)
			fmt.Fprintf(conn, "%s\n", bad)
			if resp, err := readLine(br); err != nil || !strings.HasPrefix(resp, "ERR bad SETTLE") {
				t.Fatalf("%q got %q (%v), want ERR bad SETTLE…", bad, resp, err)
			}
		}
	})
}

// TestSettleResyncsAfterCounterRestart: a server that lost the token
// between epochs (idle-token expiry, a restart) answers the next START
// NONE. Before it sends anything the client re-registers its manifest
// and rebuilds its queue from the server's new, empty table: a bulk
// transfer's one file carries on from zero in that very epoch, and a
// dataset still delivers every file exactly once — also when nothing
// had been confirmed before the loss, so no answer could have fallen
// below the last one.
func TestSettleResyncsAfterCounterRestart(t *testing.T) {
	t.Run("bulk", func(t *testing.T) {
		s := startServer(t)
		c, err := NewClient(ClientConfig{Addr: s.Addr(), Bytes: xfer.Unbounded, Shaper: &Shaper{Rate: 4e6}, ColdStart: true})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		p := xfer.Params{NC: 1, NP: 1}
		r1, err := c.Run(context.Background(), p, 0.4)
		if err != nil || r1.Bytes == 0 {
			t.Fatalf("first epoch: %+v, %v", r1, err)
		}
		s.dropToken(c.token)
		// Shorter than the first, so the new total ends below the old
		// one: an answer falling short would look the same.
		r2, err := c.Run(context.Background(), p, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if got := received(s, c.token); r2.Bytes == 0 || r2.Bytes != float64(got) {
			t.Fatalf("epoch over the restart reports %v bytes, the new table holds %d", r2.Bytes, got)
		}
		r3, err := c.Run(context.Background(), p, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if got := received(s, c.token); r3.Bytes == 0 || r2.Bytes+r3.Bytes != float64(got) {
			t.Fatalf("epochs since the restart report %v + %v bytes, the table holds %d", r2.Bytes, r3.Bytes, got)
		}
	})

	t.Run("before-first-byte", func(t *testing.T) {
		// The first epoch's one OPEN is ACKed only after the epoch, so it
		// confirms nothing, and the warm stripe it dialed outlives the
		// token.
		s := startServer(t)
		s.SetFileLatency(300 * time.Millisecond)
		c, err := NewClient(ClientConfig{Addr: s.Addr(), Bytes: xfer.Unbounded, Shaper: &Shaper{Rate: 4e6}})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		p := xfer.Params{NC: 1, NP: 1}
		if r, err := c.Run(context.Background(), p, 0.1); err != nil || r.Bytes != 0 {
			t.Fatalf("first epoch: %+v, %v; want nothing confirmed", r, err)
		}
		s.dropToken(c.token)
		s.SetFileLatency(0)
		var moved float64
		for i := 0; i < 5; i++ {
			r, err := c.Run(context.Background(), p, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			moved += r.Bytes
		}
		if got := received(s, c.token); moved == 0 || moved != float64(got) {
			t.Fatalf("five epochs since the loss report %v bytes, the server holds %d", moved, got)
		}
	})

	t.Run("framed", func(t *testing.T) {
		s := startServer(t)
		ds := dataset.Uniform(8, 256<<10)
		c, err := NewClient(ClientConfig{Addr: s.Addr(), Dataset: ds, Shaper: &Shaper{Rate: 4e6}, ColdStart: true})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		p := xfer.Params{NC: 1, NP: 1, PP: 4}
		if r, err := c.Run(context.Background(), p, 0.2); err != nil || r.Bytes == 0 || r.Done {
			t.Fatalf("first epoch: %+v, %v; want part of the dataset moved", r, err)
		}
		s.dropToken(c.token)
		runToCompletion(t, c, p)
		ft := s.lookup(c.token)
		if ft == nil {
			t.Fatal("the manifest was not registered again")
		}
		if done, useful := ft.stats(); done != ds.Count() || useful != ds.TotalBytes() {
			t.Fatalf("server holds %d files / %d bytes, want %d / %d", done, useful, ds.Count(), ds.TotalBytes())
		}
	})
}

// lateServer is a fake server for a one-file transfer. It counts what
// its data connections' frames carry and answers SETTLE the way a
// starved drain makes the real one answer: short by hold bytes for the
// first short asks, truthfully after — the bytes were late, never lost.
// RESYNC is short by hold too for the first resyncShort asks, START
// always tells the truth. The first lose payload bytes of the file it
// takes in and never counts: those are really gone.
type lateServer struct {
	ln          net.Listener
	hold, lose  int64
	size        atomic.Int64 // the file's size, from MANIFEST
	got         atomic.Int64 // counted payload bytes, duplicates included
	short       atomic.Int64 // SETTLEs still to answer short
	resyncShort atomic.Int64 // RESYNCs still to answer short
	mu          sync.Mutex
	frames      [][2]int64 // (offset, length) of every frame received
	asked       int64      // the largest total a SETTLE waited for
}

func newLateServer(t *testing.T, hold int64, short int, lose int64) *lateServer {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	p := &lateServer{ln: ln, hold: hold, lose: lose}
	p.short.Store(int64(short))
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go p.serve(conn)
		}
	}()
	return p
}

// useful is the file's duplicate-free received bytes.
func (p *lateServer) useful() int64 { return min(p.got.Load(), p.size.Load()) }

func (p *lateServer) serve(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	for {
		line, err := readLine(br)
		f := strings.Fields(line)
		if err != nil || len(f) == 0 {
			return
		}
		switch f[0] {
		case "DATAF":
			p.drain(br)
			return
		case "FILE":
			return
		case "START":
			fmt.Fprintf(conn, "OK %d\n", p.useful())
		case "MANIFEST":
			size, _ := readLine(br)
			n, _ := strconv.ParseInt(size, 10, 64)
			p.size.Store(n)
			fmt.Fprintf(conn, "OK\n")
		case "OPEN":
			fmt.Fprintf(conn, "ACK %s\n", f[2])
		case "RESYNC":
			got := p.got.Load()
			if p.resyncShort.Add(-1) >= 0 {
				got -= p.hold
			}
			if got > 0 {
				fmt.Fprintf(conn, "F 0 %d\n", got)
			}
			fmt.Fprintf(conn, "END\n")
		case "SETTLE":
			expect, _ := strconv.ParseInt(f[2], 10, 64)
			p.mu.Lock()
			p.asked = max(p.asked, expect)
			p.mu.Unlock()
			for deadline := time.Now().Add(200 * time.Millisecond); p.useful() < expect && time.Now().Before(deadline); {
				time.Sleep(200 * time.Microsecond)
			}
			n := p.useful()
			if p.short.Add(-1) >= 0 {
				n -= p.hold
			}
			done := 0
			if n >= p.size.Load() {
				done = 1
			}
			fmt.Fprintf(conn, "SETTLED %d %d\n", done, n)
		default:
			fmt.Fprintf(conn, "OK\n")
		}
	}
}

// overAsked fails t when a SETTLE waited for a total the server never
// came to hold: every settle after such an expectation waits out the
// quiet window.
func (p *lateServer) overAsked(t *testing.T) {
	t.Helper()
	p.mu.Lock()
	asked := p.asked
	p.mu.Unlock()
	if held := p.useful(); asked > held {
		t.Fatalf("a SETTLE waited for %d bytes, the server came to hold %d", asked, held)
	}
}

// drain counts a data connection's frames until it ends.
func (p *lateServer) drain(br *bufio.Reader) {
	buf := make([]byte, 256<<10)
	for {
		line, err := readLine(br)
		var idx int
		var off, n int64
		if _, serr := fmt.Sscanf(line, "FILE %d %d %d", &idx, &off, &n); err != nil || serr != nil {
			return
		}
		p.mu.Lock()
		p.frames = append(p.frames, [2]int64{off, n})
		p.mu.Unlock()
		for pos := off; pos < off+n; {
			m, err := br.Read(buf[:min(int64(len(buf)), off+n-pos)])
			lo, hi := max(pos, p.lose), pos+int64(m)
			if hi > lo {
				p.got.Add(hi - lo)
			}
			pos += int64(m)
			if err != nil {
				return
			}
		}
	}
}

// sentTwice returns how many payload bytes arrived more than once: the
// overlap of the frames received.
func (p *lateServer) sentTwice() (dup int64) {
	p.mu.Lock()
	frames := slices.Clone(p.frames)
	p.mu.Unlock()
	slices.SortFunc(frames, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var end int64
	for _, fr := range frames {
		if fr[0] < end {
			dup += min(end, fr[0]+fr[1]) - fr[0]
		}
		end = max(end, fr[0]+fr[1])
	}
	return dup
}

// TestLateBytesAreNeitherLostNorResent: a SETTLE answer that falls
// short while every stripe is alive means the bytes are late (a drain
// starved of CPU looks quiet for 5 ms), and the client must treat them
// so — requeued, they would be sent twice. Receiver truth decides: the
// epoch reports what the answer admits, the next settle credits the
// rest, and only what RESYNC's per-file count shows missing once every
// byte is leased goes out again. No SETTLE ever waits for more than the
// server comes to hold.
func TestLateBytesAreNeitherLostNorResent(t *testing.T) {
	const hold = 300 << 10
	run := func(t *testing.T, c *Client, secs float64) xfer.Report {
		t.Helper()
		r, err := c.Run(context.Background(), xfer.Params{NC: 2, NP: 1}, secs)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	t.Run("mid-transfer", func(t *testing.T) {
		p := newLateServer(t, hold, 1, 0)
		c, err := NewClient(ClientConfig{Addr: p.ln.Addr().String(), Bytes: 1 << 40})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		r1 := run(t, c, 0.05)
		sent1 := p.got.Load()
		if r1.Bytes != float64(sent1-hold) {
			t.Fatalf("first epoch reports %v bytes, want the %d the server admitted to", r1.Bytes, sent1-hold)
		}
		r2 := run(t, c, 0.05)
		if total := p.got.Load(); r1.Bytes+r2.Bytes != float64(total) || c.Remaining() != float64(1<<40-total) {
			t.Fatalf("epochs report %v + %v bytes and leave %v, the server holds %d", r1.Bytes, r2.Bytes, c.Remaining(), total)
		}
		if dup := p.sentTwice(); dup != 0 {
			t.Fatalf("%d bytes were sent twice", dup)
		}
		p.overAsked(t)
	})

	t.Run("budget-spent", func(t *testing.T) {
		const volume = 8 << 20
		p := newLateServer(t, hold, 1, 0)
		c, err := NewClient(ClientConfig{Addr: p.ln.Addr().String(), Bytes: volume})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		r1 := run(t, c, 5)
		if r1.Done || r1.Bytes != volume-hold || p.got.Load() != volume {
			t.Fatalf("report %+v, server holds %d; want all %d bytes sent and %d of them admitted to", r1, p.got.Load(), volume, volume-hold)
		}
		r2 := run(t, c, 5)
		if !r2.Done || r2.Bytes != hold || r2.Files != 1 {
			t.Fatalf("report %+v; want the late %d bytes credited and the file done", r2, hold)
		}
		if got, dup := p.got.Load(), p.sentTwice(); got != volume || dup != 0 {
			t.Fatalf("server holds %d bytes, %d of them sent twice; want %d, none", got, dup, volume)
		}
		p.overAsked(t)
	})

	t.Run("late-past-the-resync", func(t *testing.T) {
		// The late bytes are still out when the next epoch's RESYNC
		// reads the file, so they are sent again and land twice: the
		// expectation RESYNC re-based counts them once.
		const volume = 8 << 20
		p := newLateServer(t, hold, 1, 0)
		p.resyncShort.Store(1)
		c, err := NewClient(ClientConfig{Addr: p.ln.Addr().String(), Bytes: volume})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		r1 := run(t, c, 5)
		r2 := run(t, c, 5)
		// The file's total reads full before the resend lands (the late
		// bytes did arrive), so the epoch may end with it in flight.
		for deadline := time.Now().Add(2 * time.Second); p.got.Load() < volume+hold && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if r1.Bytes+r2.Bytes != volume || !r2.Done || p.sentTwice() != hold {
			t.Fatalf("reports %v + %v bytes (done %v), %d bytes sent twice; want %d, done, the %d RESYNC missed",
				r1.Bytes, r2.Bytes, r2.Done, p.sentTwice(), volume, hold)
		}
		p.overAsked(t)
	})

	t.Run("budget-spent-and-really-gone", func(t *testing.T) {
		const volume = 8 << 20
		p := newLateServer(t, 0, 0, hold)
		c, err := NewClient(ClientConfig{Addr: p.ln.Addr().String(), Bytes: volume})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		r1 := run(t, c, 5)
		if r1.Done || r1.Bytes != volume-hold || c.Remaining() != hold {
			t.Fatalf("report %+v, Remaining %v; want the %d lost bytes still to send", r1, c.Remaining(), hold)
		}
		r2 := run(t, c, 5)
		if !r2.Done || r2.Bytes != hold || p.sentTwice() != hold {
			t.Fatalf("report %+v, %d bytes sent twice; want exactly the %d lost ones resent", r2, p.sentTwice(), hold)
		}
		p.overAsked(t)
	})
}

// TestResumedTokenHoldingMoreThanItsCheckpoint: a session killed after
// its last checkpoint leaves the server holding bytes the checkpoint
// knows nothing of. The resumed session must find them (its first arm
// resyncs the file's progress), credit them, and not send them again —
// the transfer ends with the server holding exactly the volume.
func TestResumedTokenHoldingMoreThanItsCheckpoint(t *testing.T) {
	const volume, acked, orphans = 24 << 20, 8 << 20, 5<<20 + 123
	s := startServer(t)
	ctrl, br := dialCtrl(t, s)
	roundTrip(t, ctrl, br, fmt.Sprintf("MANIFEST tok 1\n%d", volume), "OK")
	sendFrame(t, s, "tok", 0, 0, acked+orphans, acked+orphans)
	waitReceived(t, s, "tok", acked+orphans)

	c, err := NewClient(ClientConfig{Addr: s.Addr(), Bytes: volume, Token: "tok", AckedBytes: acked})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	var moved float64
	for i := 0; ; i++ {
		r, err := c.Run(context.Background(), xfer.Params{NC: 2, NP: 1}, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && r.Bytes < orphans {
			t.Fatalf("first epoch reports %v bytes, want the %d orphans among them", r.Bytes, orphans)
		}
		moved += r.Bytes
		if r.Done {
			break
		}
		if i > 20 {
			t.Fatal("transfer did not finish")
		}
	}
	// Received is duplicate-free and cannot exceed the volume; the file's
	// raw count, duplicates included, is what a resend would push past it.
	if got, wire := received(s, "tok"), s.lookup("tok").received(0); got != volume || wire != volume || moved != volume-acked {
		t.Fatalf("server holds %d bytes (%d on the wire) and the epochs report %v, want %d (%d) and %d",
			got, wire, moved, volume, volume, volume-acked)
	}
}
