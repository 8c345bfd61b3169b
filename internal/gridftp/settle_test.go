package gridftp

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dstune/internal/dataset"
	"dstune/internal/faultnet"
	"dstune/internal/xfer"
)

// waitReceived polls the server's counter for token until it reads
// want (data connections credit asynchronously).
func waitReceived(t *testing.T, s *Server, token string, want int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for s.Received(token) != want {
		if time.Now().After(deadline) {
			t.Fatalf("server counted %d bytes for %q, want %d", s.Received(token), token, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// bulkStripe registers token and opens a DATA connection for it whose
// header and first payload bytes leave in one write — one segment on
// loopback, so the server's header read pulls payload into its
// bufio.Reader. It returns the connection with first bytes sent.
func bulkStripe(t *testing.T, s *Server, token string, first int) net.Conn {
	t.Helper()
	ctrl, br := dialCtrl(t, s)
	roundTrip(t, ctrl, br, "START "+token, "OK 0")
	conn, _ := dialCtrl(t, s)
	if _, err := conn.Write(append([]byte("DATA "+token+"\n"), make([]byte, first)...)); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestBulkDrainCountsToTheByte holds the bulk drain's accounting where
// its two halves meet: payload that arrived with the header (and sits
// in the bufio.Reader) plus the socket's remainder — dropped in the
// kernel where the build and the connection allow, copied otherwise —
// add up to exactly what was sent. It runs under both build tags.
func TestBulkDrainCountsToTheByte(t *testing.T) {
	// More than the server's 32 KiB reader holds, so one write feeds
	// both the reader's overshoot and the socket path; odd on purpose.
	const first, rest = 100<<10 + 17, 3<<20 + 5

	t.Run("header-and-payload-in-one-segment", func(t *testing.T) {
		s := startServer(t)
		conn := bulkStripe(t, s, "tok", first)
		if _, err := conn.Write(make([]byte, rest)); err != nil {
			t.Fatal(err)
		}
		conn.Close()
		waitReceived(t, s, "tok", first+rest)
	})

	t.Run("stripe-killed-mid-stream", func(t *testing.T) {
		s := startServer(t)
		conn := bulkStripe(t, s, "tok", first)
		waitReceived(t, s, "tok", first)
		// An RST, not a FIN: the drain's receive fails instead of
		// reading EOF. What the kernel had handed over stays credited,
		// nothing is invented, and the handler lets go of the socket.
		conn.(*net.TCPConn).SetLinger(0)
		conn.Close()
		ctrl, br := dialCtrl(t, s)
		roundTrip(t, ctrl, br, fmt.Sprintf("SETTLE tok %d", first+rest), fmt.Sprintf("SETTLED %d 0 0", first))
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
		conn := bulkStripe(t, s, "tok", first)
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
		data := bulkStripe(t, s, "tok", sent)
		defer data.Close()
		waitReceived(t, s, "tok", sent)
		ctrl, br := dialCtrl(t, s)
		// The quiet window cannot end before settleQuiet, so one answer
		// faster than that proves this path does not wait for it; the
		// best of a few keeps a loaded machine from failing the test.
		best := time.Hour
		for i := 0; i < 5; i++ {
			resp, took := settleOnce(t, ctrl, br, "tok", sent-int64(i))
			if want := fmt.Sprintf("SETTLED %d 0 0", sent); resp != want {
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
		data := bulkStripe(t, s, "tok", sent)
		waitReceived(t, s, "tok", sent)
		data.Close() // the stripe died owing the 4096 bytes expect counts on
		ctrl, br := dialCtrl(t, s)
		resp, took := settleOnce(t, ctrl, br, "tok", sent+4096)
		if want := fmt.Sprintf("SETTLED %d 0 0", sent); resp != want {
			t.Fatalf("got %q, want %q", resp, want)
		}
		if took < settleQuiet || took >= settleBound {
			t.Fatalf("answered after %v, want the %v quiet window and not the %v bound", took, settleQuiet, settleBound)
		}
	})

	t.Run("by-the-bound-while-another-connection-writes", func(t *testing.T) {
		s := startServer(t)
		data := bulkStripe(t, s, "tok", sent)
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
		ctrl, br := dialCtrl(t, s)
		resp, took := settleOnce(t, ctrl, br, "tok", 1<<60)
		var bytes, done, useful int64
		if _, err := fmt.Sscanf(resp, "SETTLED %d %d %d", &bytes, &done, &useful); err != nil || bytes < sent {
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
		if resp != "SETTLED 0 0 0" || took >= settleBound {
			t.Fatalf("got %q after %v, want SETTLED 0 0 0 without a wait", resp, took)
		}
		if n := s.Tokens(); n != 0 {
			t.Fatalf("SETTLE created a token: Tokens = %d", n)
		}
	})

	t.Run("file-plane-truth-rides-along", func(t *testing.T) {
		s := startServer(t)
		ctrl, br := dialCtrl(t, s)
		roundTrip(t, ctrl, br, "MANIFEST tokf 2\n1000\n1000", "OK")
		sendFrame(t, s, "tokf", 0, 0, 1000, 1000)
		sendFrame(t, s, "tokf", 0, 0, 1000, 1000) // a resend: counted, not useful
		sendFrame(t, s, "tokf", 1, 0, 400, 400)
		roundTrip(t, ctrl, br, "SETTLE tokf 2400", "SETTLED 2400 1 1400")
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
// between epochs (idle-token expiry, a restart) answers SETTLE from a
// counter that started over. The bulk plane keeps the sender's count
// for that epoch and carries on from the new counter; the file plane
// re-registers its manifest, rebuilds its queue from the server's
// (empty) table and still delivers every file exactly once.
func TestSettleResyncsAfterCounterRestart(t *testing.T) {
	t.Run("bulk", func(t *testing.T) {
		s := startServer(t)
		// Cold stripes: a warm one would go on feeding the counter the
		// server dropped.
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
		s.dropToken(c.Token())
		// Shorter than the first, so the new counter ends below the old
		// one: the restart is unmistakable.
		r2, err := c.Run(context.Background(), p, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Received(c.Token()); r2.Bytes == 0 || r2.Bytes != float64(got) {
			t.Fatalf("epoch over the restart reports %v bytes, the new counter holds %d", r2.Bytes, got)
		}
		r3, err := c.Run(context.Background(), p, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Received(c.Token()); r3.Bytes == 0 || r2.Bytes+r3.Bytes != float64(got) {
			t.Fatalf("epochs since the restart report %v + %v bytes, the counter holds %d", r2.Bytes, r3.Bytes, got)
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
		s.dropToken(c.Token())
		runToCompletion(t, c, p)
		ft := s.fileTableFor(c.Token())
		if ft == nil {
			t.Fatal("the manifest was not registered again")
		}
		if done, useful := ft.stats(); done != ds.Count() || useful != ds.TotalBytes() {
			t.Fatalf("server holds %d files / %d bytes, want %d / %d", done, useful, ds.Count(), ds.TotalBytes())
		}
	})
}

// lateServer is a fake server that counts what its data connections
// receive and answers SETTLE the way a starved drain makes the real one
// answer: short by hold bytes for the first short asks, truthfully
// after — the bytes were late, never lost.
type lateServer struct {
	ln      net.Listener
	got     atomic.Int64
	hold    int64
	short   atomic.Int64 // SETTLEs still to answer short
	settles atomic.Int64 // SETTLEs answered
}

func newLateServer(t *testing.T, hold int64, short int) *lateServer {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	p := &lateServer{ln: ln, hold: hold}
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
		case "DATA":
			buf := make([]byte, 256<<10)
			for {
				n, err := br.Read(buf)
				p.got.Add(int64(n))
				if err != nil {
					return
				}
			}
		case "START":
			fmt.Fprintf(conn, "OK %d\n", p.got.Load())
		case "SETTLE":
			var expect int64
			fmt.Sscan(f[2], &expect)
			for deadline := time.Now().Add(2 * time.Second); p.got.Load() < expect && time.Now().Before(deadline); {
				time.Sleep(200 * time.Microsecond)
			}
			n := p.got.Load()
			if p.short.Add(-1) >= 0 {
				n -= p.hold
			}
			p.settles.Add(1)
			fmt.Fprintf(conn, "SETTLED %d 0 0\n", n)
		default:
			fmt.Fprintf(conn, "OK\n")
		}
	}
}

// TestLateBytesAreNeitherLostNorResent: a SETTLE answer that falls
// short while every stripe is alive means the bytes are late (a drain
// starved of CPU looks quiet for 5 ms), and the bulk plane must treat
// them so — a refund would have them sent twice, and the transfer would
// deliver more than its volume. Mid-transfer they stay pending and the
// next settle credits them; with the budget spent there is no next
// settle, so the epoch asks once more, and only gives the bytes up for
// lost when the second answer is short too.
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
		p := newLateServer(t, hold, 1)
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
		if got, want := c.Remaining(), float64(1<<40-sent1); got != want {
			t.Fatalf("Remaining = %v after a short answer with no stripe dead, want %v: late bytes must not go back to the budget", got, want)
		}
		r2 := run(t, c, 0.05)
		if total := p.got.Load(); r1.Bytes+r2.Bytes != float64(total) || c.Remaining() != float64(1<<40-total) {
			t.Fatalf("epochs report %v + %v bytes and leave %v, the server holds %d", r1.Bytes, r2.Bytes, c.Remaining(), total)
		}
	})

	t.Run("budget-spent", func(t *testing.T) {
		const volume = 8 << 20
		p := newLateServer(t, hold, 1)
		c, err := NewClient(ClientConfig{Addr: p.ln.Addr().String(), Bytes: volume})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		r := run(t, c, 5)
		if !r.Done || r.Bytes != volume || p.got.Load() != volume {
			t.Fatalf("report %+v, server holds %d; want the %d-byte transfer done exactly", r, p.got.Load(), volume)
		}
		if n := p.settles.Load(); n != 2 {
			t.Fatalf("%d SETTLE exchanges, want the short one and one more", n)
		}
	})

	t.Run("budget-spent-and-really-gone", func(t *testing.T) {
		const volume = 8 << 20
		p := newLateServer(t, hold, 2)
		c, err := NewClient(ClientConfig{Addr: p.ln.Addr().String(), Bytes: volume})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		r := run(t, c, 5)
		if r.Done || r.Bytes != volume-hold || c.Remaining() != hold {
			t.Fatalf("report %+v, Remaining %v; want %d bytes given up for lost and back in the budget", r, c.Remaining(), hold)
		}
	})
}

// TestResumedTokenHoldingMoreThanItsCheckpoint: a session killed after
// its last checkpoint leaves the server holding bytes the checkpoint
// knows nothing of. The resumed session must find them (its first arm
// reads the counter), credit them, and not send them again — the
// transfer ends with the server holding exactly the volume.
func TestResumedTokenHoldingMoreThanItsCheckpoint(t *testing.T) {
	const volume, acked, orphans = 24 << 20, 8 << 20, 5<<20 + 123
	s := startServer(t)
	data := bulkStripe(t, s, "tok", acked+orphans)
	waitReceived(t, s, "tok", acked+orphans)
	data.Close()

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
	if got := s.Received("tok"); got != volume || moved != volume-acked {
		t.Fatalf("server holds %d bytes and the epochs report %v, want %d and %d", got, moved, volume, volume-acked)
	}
}
