package gridftp

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dstune/internal/dataset"
	"dstune/internal/directsearch"
	"dstune/internal/faultnet"
	"dstune/internal/tuner"
	"dstune/internal/xfer"
)

// dialCtrl opens a raw protocol connection to the server.
func dialCtrl(t *testing.T, s *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, bufio.NewReader(conn)
}

// roundTrip sends one command line and asserts the exact response.
func roundTrip(t *testing.T, conn net.Conn, br *bufio.Reader, cmd, want string) {
	t.Helper()
	if _, err := fmt.Fprintf(conn, "%s\n", cmd); err != nil {
		t.Fatalf("%q: %v", cmd, err)
	}
	resp, err := readLine(br)
	if err != nil {
		t.Fatalf("%q: %v", cmd, err)
	}
	if resp != want {
		t.Fatalf("%q got %q, want %q", cmd, resp, want)
	}
}

// waitFileStats polls the token's file table until it reports the
// wanted done count and useful bytes (data connections credit
// asynchronously).
func waitFileStats(t *testing.T, s *Server, token string, wantDone int, wantUseful int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if ft := s.lookup(token); ft != nil {
			if done, useful := ft.stats(); done == wantDone && useful == wantUseful {
				return
			}
		}
		if time.Now().After(deadline) {
			ft := s.lookup(token)
			if ft == nil {
				t.Fatalf("token %q has no file table", token)
			}
			done, useful := ft.stats()
			t.Fatalf("token %q stats %d/%d, want %d/%d", token, done, useful, wantDone, wantUseful)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sendFrame pushes one framed segment on its own DATAF connection,
// truncating the payload to sendBytes when it is below length.
func sendFrame(t *testing.T, s *Server, token string, idx int, off, length, sendBytes int64) {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "DATAF %s\nFILE %d %d %d\n", token, idx, off, length); err != nil {
		t.Fatal(err)
	}
	for rem := sendBytes; rem > 0; {
		n := rem
		if n > fileChunk {
			n = fileChunk
		}
		m, err := conn.Write(fileZeros[:n])
		rem -= int64(m)
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestManifestLifecycle(t *testing.T) {
	s := startServer(t)
	conn, br := dialCtrl(t, s)
	// Register 3 files; the zero-length one is done on arrival.
	roundTrip(t, conn, br, "START tokm", "NONE") // no manifest, no token
	roundTrip(t, conn, br, "MANIFEST tokm 3\n100\n200\n0", "OK")
	roundTrip(t, conn, br, "SETTLE tokm 0", "SETTLED 1 0")
	roundTrip(t, conn, br, "RESYNC tokm", "END") // no file has bytes yet

	// Complete file 0, then resend half of it: START reads the
	// duplicate-free total.
	sendFrame(t, s, "tokm", 0, 0, 100, 100)
	sendFrame(t, s, "tokm", 0, 0, 50, 50)
	waitFileStats(t, s, "tokm", 2, 100)
	roundTrip(t, conn, br, "START tokm", "OK 100")

	// A re-sent manifest of the same shape keeps the progress (the
	// resume path must not erase the server's per-file state).
	roundTrip(t, conn, br, "MANIFEST tokm 3\n100\n200\n0", "OK")
	roundTrip(t, conn, br, "SETTLE tokm 100", "SETTLED 2 100")

	// A different shape replaces the table, and with it the total.
	roundTrip(t, conn, br, "MANIFEST tokm 2\n50\n50", "OK")
	roundTrip(t, conn, br, "SETTLE tokm 0", "SETTLED 0 0")
	roundTrip(t, conn, br, "START tokm", "OK 0")
}

func TestManifestRejectsHostileInput(t *testing.T) {
	s := startServer(t)
	for _, tc := range []struct{ input, wantPrefix string }{
		{"MANIFEST badtok", "ERR bad MANIFEST"},
		{"MANIFEST badtok x", "ERR bad MANIFEST count"},
		{"MANIFEST badtok -1", "ERR bad MANIFEST count"},
		{"MANIFEST badtok 1048577", "ERR bad MANIFEST count"},
		{"MANIFEST badtok 1\nxyz", "ERR bad MANIFEST size"},
		{"MANIFEST badtok 1\n-5", "ERR bad MANIFEST size"},
	} {
		conn, br := dialCtrl(t, s)
		fmt.Fprintf(conn, "%s\n", tc.input)
		resp, err := readLine(br)
		if err != nil {
			t.Fatalf("%q: %v", tc.input, err)
		}
		if !strings.HasPrefix(resp, tc.wantPrefix) {
			t.Fatalf("%q got %q, want prefix %q", tc.input, resp, tc.wantPrefix)
		}
		conn.Close()
	}
	// None of the rejected manifests may have installed a table.
	if ft := s.lookup("badtok"); ft != nil {
		t.Fatal("rejected manifest left a file table behind")
	}
}

func TestOpenAcksArePipelined(t *testing.T) {
	s := startServer(t)
	const lat = 150 * time.Millisecond
	s.SetFileLatency(lat)
	conn, br := dialCtrl(t, s)
	roundTrip(t, conn, br, "MANIFEST toko 6\n10\n10\n10\n10\n10\n10", "OK")

	var sb strings.Builder
	for i := 0; i < 6; i++ {
		fmt.Fprintf(&sb, "OPEN toko %d\n", i)
	}
	start := time.Now()
	if _, err := conn.Write([]byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for i := 0; i < 6; i++ {
		resp, err := readLine(br)
		if err != nil {
			t.Fatal(err)
		}
		var idx int
		if _, err := fmt.Sscanf(resp, "ACK %d", &idx); err != nil {
			t.Fatalf("bad ACK %q", resp)
		}
		seen[idx] = true
	}
	elapsed := time.Since(start)
	if len(seen) != 6 {
		t.Fatalf("ACKed %d distinct files, want 6", len(seen))
	}
	// Concurrent delays: all six ACKs land about one latency after the
	// requests, not six latencies (900 ms) as a serial server would.
	if elapsed < lat-30*time.Millisecond {
		t.Fatalf("ACKs arrived in %v, before the %v file latency", elapsed, lat)
	}
	if elapsed > 4*lat {
		t.Fatalf("pipelined ACKs took %v, want about one %v latency", elapsed, lat)
	}

	// Hostile OPENs.
	s.SetFileLatency(0)
	for _, bad := range []string{"OPEN toko 99", "OPEN toko -1", "OPEN ghost-token 0"} {
		c2, br2 := dialCtrl(t, s)
		fmt.Fprintf(c2, "%s\n", bad)
		resp, err := readLine(br2)
		if err != nil {
			t.Fatalf("%q: %v", bad, err)
		}
		if !strings.HasPrefix(resp, "ERR") {
			t.Fatalf("%q got %q, want ERR", bad, resp)
		}
		c2.Close()
	}
}

// ioCounter counts the writes, and the reads that return bytes, on
// every connection its listener accepts. Its connections are wrapped,
// so the server drains them through the copying drain.
type ioCounter struct {
	net.Listener
	writes, reads *atomic.Int64
}

func (l ioCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countedConn{c, l}, nil
}

type countedConn struct {
	net.Conn
	l ioCounter
}

func (c countedConn) Write(p []byte) (int, error) {
	c.l.writes.Add(1)
	return c.Conn.Write(p)
}

func (c countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.l.reads.Add(1)
	}
	return n, err
}

// countingServer serves on a loopback listener wrapped in an ioCounter.
func countingServer(t *testing.T) (s *Server, writes, reads *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	writes, reads = new(atomic.Int64), new(atomic.Int64)
	s = ServeListener(ioCounter{ln, writes, reads})
	t.Cleanup(func() { s.Close() })
	return s, writes, reads
}

// openBatch returns the OPEN lines of files [from, to) of token.
func openBatch(token string, from, to int) string {
	var sb strings.Builder
	for i := from; i < to; i++ {
		fmt.Fprintf(&sb, "OPEN %s %d\n", token, i)
	}
	return sb.String()
}

// readAcks reads n ACK lines and returns the indices.
func readAcks(t *testing.T, br *bufio.Reader, n int) map[int]bool {
	t.Helper()
	seen := make(map[int]bool)
	for len(seen) < n {
		resp, err := readLine(br)
		if err != nil {
			t.Fatalf("after %d of %d ACKs: %v", len(seen), n, err)
		}
		var idx int
		if _, err := fmt.Sscanf(resp, "ACK %d", &idx); err != nil {
			t.Fatalf("bad ACK %q", resp)
		}
		seen[idx] = true
	}
	return seen
}

// batchConn dials a control connection to s, registers token as a
// manifest of files ten-byte files, and bounds the connection's life:
// an answer the server holds back is a hang, and it must fail the test
// in seconds.
func batchConn(t *testing.T, s *Server, token string, files int) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, br := dialCtrl(t, s)
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	roundTrip(t, conn, br, "MANIFEST "+token+" "+strconv.Itoa(files)+strings.Repeat("\n10", files), "OK")
	return conn, br
}

// TestOpenBatchIsAnsweredInOneWrite: the server batches its answers, so
// 32 pipelined OPENs that arrive in one write are ACKed in one write —
// two if the batch happens to arrive in two reads — not 32.
func TestOpenBatchIsAnsweredInOneWrite(t *testing.T) {
	s, writes, _ := countingServer(t)
	const files = 32
	conn, br := batchConn(t, s, "tokb", files)
	writes.Store(0)
	if _, err := io.WriteString(conn, openBatch("tokb", 0, files)); err != nil {
		t.Fatal(err)
	}
	if seen := readAcks(t, br, files); len(seen) != files {
		t.Fatalf("ACKed %d distinct files, want %d", len(seen), files)
	}
	if n := writes.Load(); n > 2 {
		t.Errorf("%d OPENs in one write were answered in %d writes, want at most 2", files, n)
	}
}

// TestSplitOpenBatchIsAnswered is the flush-before-block case: a batch
// of OPENs cut in the middle of a line must have the ACKs of its whole
// lines sent before the server waits for the rest of the cut one — the
// client may be waiting for them — and, 50 ms later, the rest.
func TestSplitOpenBatchIsAnswered(t *testing.T) {
	s := startServer(t)
	const files, whole = 16, 7
	conn, br := batchConn(t, s, "toks", files)
	batch := openBatch("toks", 0, files)
	cut := len(openBatch("toks", 0, whole)) + len("OPEN to")
	if _, err := io.WriteString(conn, batch[:cut]); err != nil {
		t.Fatal(err)
	}
	if seen := readAcks(t, br, whole); len(seen) != whole {
		t.Fatalf("ACKed %d distinct files of the first half, want %d", len(seen), whole)
	}
	time.Sleep(50 * time.Millisecond)
	if _, err := io.WriteString(conn, batch[cut:]); err != nil {
		t.Fatal(err)
	}
	seen := readAcks(t, br, files-whole)
	for i := whole; i < files; i++ {
		if !seen[i] {
			t.Errorf("file %d of the second half was not ACKed: %v", i, seen)
		}
	}
}

// TestCopyingDrainReadsAhead: the copying drain — here on a wrapped
// connection, which the truncating receive refuses, as under a sink or
// the portable build — copies every payload byte anyway, so it reads
// 32 KiB ahead instead of a header and a payload per frame: 64 frames
// of 1 KiB that arrive in one write are drained in a handful of reads,
// not 128.
func TestCopyingDrainReadsAhead(t *testing.T) {
	s, _, reads := countingServer(t)
	const frames, size = 64, 1 << 10
	ctrl, br := dialCtrl(t, s)
	roundTrip(t, ctrl, br, "MANIFEST tokr "+strconv.Itoa(frames)+strings.Repeat("\n"+strconv.Itoa(size), frames), "OK")
	batch := []byte("DATAF tokr\n")
	for i := 0; i < frames; i++ {
		batch = fmt.Appendf(batch, "FILE %d 0 %d\n", i, size)
		batch = append(batch, make([]byte, size)...)
	}
	conn, _ := dialCtrl(t, s)
	reads.Store(0)
	if _, err := conn.Write(batch); err != nil {
		t.Fatal(err)
	}
	waitReceived(t, s, "tokr", frames*size)
	if n := reads.Load(); n > 16 {
		t.Errorf("%d frames of %d bytes took %d reads to drain, want at most 16", frames, size, n)
	}
}

func TestFramedDataAccounting(t *testing.T) {
	s := startServer(t)
	conn, br := dialCtrl(t, s)
	roundTrip(t, conn, br, "MANIFEST tokf 2\n1000\n1000", "OK")

	// Partial segment of file 0.
	sendFrame(t, s, "tokf", 0, 0, 600, 600)
	waitFileStats(t, s, "tokf", 0, 600)

	// Full resend of file 0 (a lost-stripe recovery): raw got runs to
	// 1600 but the duplicate-free useful total clamps at the file size.
	sendFrame(t, s, "tokf", 0, 0, 1000, 1000)
	waitFileStats(t, s, "tokf", 1, 1000)

	// Truncated frame (stripe killed mid-file): the 200 bytes that
	// arrived stay credited.
	sendFrame(t, s, "tokf", 1, 0, 500, 200)
	waitFileStats(t, s, "tokf", 1, 1200)

	// RESYNC streams the raw per-file counts for the client to rebuild
	// its queue from.
	fmt.Fprintf(conn, "RESYNC tokf\n")
	got := make(map[int]int64)
	for {
		line, err := readLine(br)
		if err != nil {
			t.Fatal(err)
		}
		if line == "END" {
			break
		}
		var idx int
		var n int64
		if _, err := fmt.Sscanf(line, "F %d %d", &idx, &n); err != nil {
			t.Fatalf("bad RESYNC line %q", line)
		}
		got[idx] = n
	}
	if got[0] != 1600 || got[1] != 200 || len(got) != 2 {
		t.Fatalf("RESYNC reported %v, want {0:1600, 1:200}", got)
	}

	// A frame for an unmanifested token drops its connection without
	// touching tokf's table.
	sendFrame(t, s, "straytok", 0, 0, 10, 10)
	time.Sleep(50 * time.Millisecond)
	if ft := s.lookup("straytok"); ft != nil {
		t.Fatal("unmanifested token grew a file table")
	}
	waitFileStats(t, s, "tokf", 1, 1200)
}

func TestDatasetTransferCompletes(t *testing.T) {
	s := startServer(t)
	const nFiles = 48
	ds := dataset.Uniform(nFiles, 64<<10)
	c, err := NewClient(ClientConfig{Addr: s.Addr(), Dataset: ds})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	total := float64(ds.TotalBytes())
	var moved float64
	files := 0
	for i := 0; i < 40; i++ {
		r, err := c.Run(context.Background(), xfer.Params{NC: 2, NP: 1, PP: 4}, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		moved += r.Bytes
		files += r.Files
		if r.Done {
			if moved != total {
				t.Fatalf("reports account %v bytes, want %v", moved, total)
			}
			if files != nFiles {
				t.Fatalf("reports account %d files, want %d", files, nFiles)
			}
			if c.Remaining() != 0 {
				t.Fatalf("done but remaining %v", c.Remaining())
			}
			// Server-side receiver truth agrees file by file.
			ft := s.lookup(c.Token())
			if ft == nil {
				t.Fatal("server lost the file table")
			}
			done, useful := ft.stats()
			if done != nFiles || useful != ds.TotalBytes() {
				t.Fatalf("server counted %d files / %d bytes, want %d / %d",
					done, useful, nFiles, ds.TotalBytes())
			}
			return
		}
	}
	t.Fatal("dataset transfer never completed")
}

func TestDatasetResumeAtFileOffsetGranularity(t *testing.T) {
	s := startServer(t)
	ds := dataset.Uniform(32, 64<<10) // 2 MiB
	c1, err := NewClient(ClientConfig{Addr: s.Addr(), Dataset: ds, Shaper: &Shaper{Rate: 1e6}})
	if err != nil {
		t.Fatal(err)
	}
	// One shaped epoch moves only part of the dataset, ending mid-file.
	r1, err := c1.Run(context.Background(), xfer.Params{NC: 2, NP: 1, PP: 8}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Bytes <= 0 || r1.Done {
		t.Fatalf("first epoch should be a partial transfer: %+v", r1)
	}
	snap := c1.Snapshot()
	if snap.Acked != r1.Bytes {
		t.Fatalf("snapshot acked %v, epoch moved %v", snap.Acked, r1.Bytes)
	}
	// Abandon c1 without Stop (a crash keeps the server's token alive);
	// resume under a fresh client seeded from the snapshot.
	c2, err := NewClient(ClientConfig{
		Addr:        s.Addr(),
		Dataset:     ds,
		Token:       snap.Token,
		AckedBytes:  snap.Acked,
		ClockOffset: snap.Clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Stop()
	moved := snap.Acked
	files := r1.Files
	for i := 0; i < 40; i++ {
		r, err := c2.Run(context.Background(), xfer.Params{NC: 2, NP: 1, PP: 8}, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		moved += r.Bytes
		files += r.Files
		if r.Done {
			if moved != float64(ds.TotalBytes()) {
				t.Fatalf("sessions account %v bytes, want %d (duplicates or losses across the resume)",
					moved, ds.TotalBytes())
			}
			if files != ds.Count() {
				t.Fatalf("sessions account %d files, want %d", files, ds.Count())
			}
			ft := s.lookup(snap.Token)
			if ft == nil {
				t.Fatal("server lost the file table")
			}
			if done, useful := ft.stats(); done != ds.Count() || useful != ds.TotalBytes() {
				t.Fatalf("server counted %d files / %d bytes, want %d / %d",
					done, useful, ds.Count(), ds.TotalBytes())
			}
			return
		}
	}
	t.Fatal("resumed transfer never completed")
}

func TestPipeliningHidesFileLatency(t *testing.T) {
	// Acceptance (part A): with per-file handshake latency injected,
	// the epoch at pipelining depth 8 must recover well over 25%
	// throughput over depth 1 at the same (nc, np) — the admission rate
	// is pp/latency, so the gap is nominally 8x.
	s := startServer(t)
	s.SetFileLatency(20 * time.Millisecond)
	measure := func(pp int) xfer.Report {
		ds := dataset.Uniform(4096, 64<<10)
		c, err := NewClient(ClientConfig{Addr: s.Addr(), Dataset: ds})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		r, err := c.Run(context.Background(), xfer.Params{NC: 2, NP: 1, PP: pp}, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	one := measure(1)
	eight := measure(8)
	if one.Bytes <= 0 || eight.Bytes <= 0 {
		t.Fatalf("no progress: pp1 %v bytes, pp8 %v bytes", one.Bytes, eight.Bytes)
	}
	if eight.Throughput < 1.25*one.Throughput {
		t.Fatalf("pp=8 throughput %v not >= 1.25x pp=1 throughput %v",
			eight.Throughput, one.Throughput)
	}
	// The first byte waits for the first ACK, so the injected latency
	// must show up in the report's first-byte lag.
	if one.FirstByteLag < 0.015 {
		t.Fatalf("FirstByteLag %v below the injected 20 ms handshake", one.FirstByteLag)
	}
}

func TestTuned3DFindsPipelining(t *testing.T) {
	// Acceptance (part B): the cd strategy tuning all three dimensions
	// (nc, np, pp) over real sockets with injected per-file latency
	// must discover pp > 1 and beat the pp=1 baseline by >= 25%.
	s := startServer(t)
	s.SetFileLatency(20 * time.Millisecond)

	baselineDS := dataset.Uniform(20000, 64<<10)
	bc, err := NewClient(ClientConfig{Addr: s.Addr(), Dataset: baselineDS})
	if err != nil {
		t.Fatal(err)
	}
	baseline := 0.0
	for i := 0; i < 3; i++ {
		r, err := bc.Run(context.Background(), xfer.Params{NC: 2, NP: 1, PP: 1}, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if r.Throughput > baseline {
			baseline = r.Throughput
		}
	}
	bc.Stop()
	if baseline <= 0 {
		t.Fatal("pp=1 baseline moved nothing")
	}

	ds := dataset.Uniform(20000, 64<<10)
	c, err := NewClient(ClientConfig{Addr: s.Addr(), Dataset: ds})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tuner.Config{
		Epoch:     0.25,
		Tolerance: 30,
		Box:       directsearch.MustBox([]int{1, 1, 1}, []int{4, 2, 16}),
		Start:     []int{2, 1, 1}, // pp starts at 1: the tuner must discover the depth
		Map:       tuner.MapNCNPPP(),
		Budget:    10,
		Seed:      7,
	}
	tr, err := tuner.Run(context.Background(), "cd-tuner", cfg, c)
	if err != nil {
		t.Fatal(err)
	}
	best := tr.Results[0]
	for _, r := range tr.Results {
		if r.Report.Throughput > best.Report.Throughput {
			best = r
		}
	}
	if best.X[2] <= 1 {
		t.Fatalf("cd-tuner never left pp=1; best epoch at %v", best.X)
	}
	if best.Report.Throughput < 1.25*baseline {
		t.Fatalf("tuned best %v not >= 1.25x pp=1 baseline %v (best at %v)",
			best.Report.Throughput, baseline, best.X)
	}
}

func TestDatasetSurvivesInjectedFaults(t *testing.T) {
	// Acceptance (part C): a dataset transfer completes under 20%
	// injected dial failures plus mid-epoch connection resets, with
	// byte- and file-exact accounting on both ends.
	s := startServer(t)
	in := faultnet.New(faultnet.Config{
		Seed:            11,
		DialFailProb:    0.20,
		ResetAfterBytes: 256 << 10,
	})
	const nFiles = 300
	ds := dataset.Uniform(nFiles, 16<<10) // ~4.7 MiB
	c, err := NewClient(ClientConfig{
		Addr:    s.Addr(),
		Dataset: ds,
		Dialer:  in.Dial,
		Retry:   RetryConfig{Attempts: 3, Backoff: time.Millisecond},
		Seed:    11,
	})
	if err != nil {
		t.Fatal(err)
	}
	var moved float64
	files := 0
	done := false
	for i := 0; i < 200 && !done; i++ {
		r, err := c.Run(context.Background(), xfer.Params{NC: 2, NP: 2, PP: 4}, 0.15)
		if err != nil {
			if xfer.IsTransient(err) {
				continue // an outage epoch; the next one retries
			}
			t.Fatal(err)
		}
		moved += r.Bytes
		files += r.Files
		done = r.Done
	}
	if !done {
		t.Fatalf("transfer never completed; moved %v of %d", moved, ds.TotalBytes())
	}
	if moved != float64(ds.TotalBytes()) {
		t.Fatalf("reports account %v bytes, want %d (resets must re-send, duplicates must not double-count)",
			moved, ds.TotalBytes())
	}
	if files != nFiles {
		t.Fatalf("reports account %d files, want %d", files, nFiles)
	}
	ft := s.lookup(c.Token())
	if ft == nil {
		t.Fatal("server lost the file table")
	}
	if done, useful := ft.stats(); done != nFiles || useful != ds.TotalBytes() {
		t.Fatalf("server counted %d files / %d bytes, want %d / %d",
			done, useful, nFiles, ds.TotalBytes())
	}
	if in.Refused() == 0 {
		t.Fatal("injector refused no dials; the test exercised nothing")
	}
	if in.Resets() == 0 {
		t.Fatal("injector reset no connections; the test exercised nothing")
	}
	c.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for s.Tokens() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("Tokens = %d after Stop, want 0", s.Tokens())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// FuzzServerControl hammers the server's control and framed-data
// parsers with hostile input. The contract: the server never panics,
// never corrupts another token's file table, and never grows a token
// the TTL janitor cannot expire.
func FuzzServerControl(f *testing.F) {
	seeds := []string{
		"MANIFEST t 2\n100\n200\n",
		"MANIFEST t 2\n100\n", // truncated manifest
		"MANIFEST t -1\n",
		"MANIFEST t 1048577\n",
		"MANIFEST t 99999999999999999999\n",
		"MANIFEST t 1\nxyz\n",
		"MANIFEST t 1\n-5\n",
		"MANIFEST\n",
		"OPEN t 0\n",
		"OPEN t -1\n",
		"OPEN t 999\n",
		"OPEN\n",
		"RESYNC t\n",
		"RESYNC\n",
		"DATAF t\nFILE 0 0 10\n0123456789",
		"DATAF t\nFILE 0 0 10\n0123", // truncated frame
		"DATAF t\nFILE -1 0 10\n",
		"DATAF t\nFILE 0 0 nonsense\n",
		"DATAF t\nFILE 0 0 99999999999\n",
		// 19-digit fields that wrap an int64 negative.
		"DATAF t\nFILE 9999999999999999999 0 10\n0123456789",
		"DATAF t\nFILE 9223372036854775808 0 10\n0123456789",
		"DATAF t\nFILE 0 9999999999999999999 10\n0123456789",
		"DATAF t\nFILE 0 0 9999999999999999999\n0123456789",
		"DATAF t\nGARBAGE\n",
		"FILE 0 0 10\n",
		"MANIFEST t 2\n100\n200\nOPEN t 0\nSETTLE t 0\nRESYNC t\nCLOSE t\n",
		"START t\nMANIFEST t 3\n1\n2\n3\nOPEN t 2\nSETTLE t 0\n",
		"START\n",
		"START t 4\n", // the channel count START no longer takes
		"CLOSE t\nSTART t\nCLOSE\n",
		strings.Repeat("MANIFEST t 1\n1\n", 20),
		"\x00\xff\n",
		strings.Repeat("x", 300) + "\n", // over maxLineLen
		// MANIFEST's SINK flag: malformed, hostile token names, and
		// sinked frames with out-of-bounds offsets and lengths.
		"MANIFEST t 1 SINK\n",
		"MANIFEST t 1 sink\n10\n",
		"MANIFEST t 1 SINK extra\n10\n",
		"MANIFEST " + strings.Repeat("A", 200) + " 1 SINK\n10\n",
		"MANIFEST ../../evil 1 SINK\n10\n",
		"MANIFEST t 1 SINK\n10\nMANIFEST t 1 SINK\n10\nDATAF t\nFILE 0 0 10\n0123456789",
		"MANIFEST t 1 SINK\n10\nDATAF t\nFILE 0 8 10\n0123456789",
		"MANIFEST t 1 SINK\n10\nDATAF t\nFILE 0 99999999999999 5\nabcde",
		"MANIFEST t 1 SINK\n10\nDATAF t\nFILE 0 0 5\nabc", // truncated sink frame
		"MANIFEST t 2 SINK\n10\n10\nDATAF t\nFILE 1 0 10\n0123456789FILE 0 0 10\n0123456789",
		// SETTLE: missing, negative, non-numeric and overflowing counts,
		// an unknown token, and well-formed ones that are met at once
		// and that wait out the quiet window.
		"SETTLE t\n",
		"SETTLE t -1\n",
		"SETTLE t lots\n",
		"SETTLE t 99999999999999999999\n",
		"SETTLE ghost 5\n",
		"START t\nSETTLE t 0\nSETTLE t 9223372036854775807\nSETTLE t 0\n",
		"MANIFEST t 1\n10\nSETTLE t 10 extra\n",
		// The four verbs the protocol lost: unknown commands now.
		"ADJ t 4\n",
		"STAT t\n",
		"FSTAT t\nFSTAT t 0\n",
		"MANIFEST t 1\n10\nSINK t\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		// A sink root makes the SINK-flagged manifests land real pwrites,
		// so the hostile frames exercise the bounds checks and the handle
		// cache, not just the parser.
		s.SetSink(t.TempDir())
		// A bystander token with a registered manifest: hostile traffic
		// against other tokens must not touch it. Token t has a one-file
		// table too, so a hostile data connection's frames reach one.
		kc, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(kc, "MANIFEST keeper 2\n100\n200\nMANIFEST t 1\n10\n")
		kbr := bufio.NewReader(kc)
		for _, tok := range []string{"keeper", "t"} {
			if resp, err := readLine(kbr); err != nil || resp != "OK" {
				t.Fatalf("%s manifest: %q, %v", tok, resp, err)
			}
		}
		kc.Close()

		hc, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		hc.SetDeadline(time.Now().Add(2 * time.Second))
		hc.Write(data)
		if tc, ok := hc.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		io.Copy(io.Discard, hc) // drain responses until the server hangs up
		hc.Close()
		s.Close() // waits for every handler, so the checks below are quiesced

		ft := s.lookup("keeper")
		if ft == nil || len(ft.sizes) != 2 {
			t.Fatalf("hostile input corrupted the keeper token's file table: %v", ft)
		}
		if done, useful := ft.stats(); done != 0 || useful != 0 {
			t.Fatalf("keeper token gained phantom progress: %d files, %d bytes", done, useful)
		}
		// Whatever tokens the input created must expire with the TTL
		// janitor; force the sweep rather than waiting out the clock.
		s.expireTokens(time.Now().Add(24 * time.Hour))
		if n := s.Tokens(); n != 0 {
			t.Fatalf("%d tokens leaked past the TTL janitor", n)
		}
		// Every sink handle the input may have opened must be closed
		// once the server and janitor have quiesced.
		if n := sinkOpenFiles.Load(); n != 0 {
			t.Fatalf("%d sink file handles leaked", n)
		}
	})
}
