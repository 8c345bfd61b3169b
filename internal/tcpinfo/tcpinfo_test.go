package tcpinfo

import (
	"io"
	"net"
	"runtime"
	"testing"
)

// TestSampleLoopback pushes some traffic over a loopback TCP pair and
// samples the sender: on Linux the kernel must report a live
// congestion window; elsewhere Sample must report ok=false.
func TestSampleLoopback(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		io.Copy(io.Discard, c)
		c.Close()
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 64<<10)
	for i := 0; i < 64; i++ {
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
	}

	info, ok := Sample(conn)
	if runtime.GOOS != "linux" || runtime.GOARCH == "386" {
		if ok {
			t.Fatalf("Sample reported ok on %s; want the portable no-op", runtime.GOOS)
		}
		return
	}
	if !ok {
		t.Fatal("Sample failed on a live Linux TCP connection")
	}
	if info.SndCwnd == 0 {
		t.Fatalf("snd_cwnd = 0 after 4 MiB of traffic: %+v", info)
	}
	if info.RTT <= 0 {
		t.Fatalf("rtt = %v after 4 MiB of traffic: %+v", info.RTT, info)
	}
	conn.Close()
	<-done
}

// TestSampleNonSocket pins the nil-cost degradation: connections that
// do not expose a raw file descriptor (in-memory pipes, wrapped test
// conns) must report ok=false rather than erroring or panicking.
func TestSampleNonSocket(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if _, ok := Sample(a); ok {
		t.Fatal("Sample reported ok on a net.Pipe connection")
	}
}
