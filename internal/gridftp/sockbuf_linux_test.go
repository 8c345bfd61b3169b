//go:build linux

package gridftp

import (
	"context"
	"net"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"dstune/internal/xfer"
)

// sockOpt reads one SOL_SOCKET option of conn through its raw socket.
func sockOpt(t *testing.T, conn net.Conn, opt int) int {
	t.Helper()
	sc, ok := conn.(syscall.Conn)
	if !ok {
		t.Fatalf("%T exposes no raw socket", conn)
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var v int
	var optErr error
	if err := rc.Control(func(fd uintptr) {
		v, optErr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, opt)
	}); err != nil {
		t.Fatal(err)
	}
	if optErr != nil {
		t.Fatal(optErr)
	}
	return v
}

// sysctlInt reads an integer under /proc/sys, skipping the test when
// the file is unreadable.
func sysctlInt(t *testing.T, path string) int {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Skipf("cannot read %s: %v", path, err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err != nil {
		t.Skipf("cannot parse %s: %v", path, err)
	}
	return n
}

// sockBufPair runs a cold and a warm epoch between a fresh server and
// client, both sized to n socket-buffer bytes (0 keeps the OS
// default), and returns the client's pooled stripes and the server's
// accepted connections.
func sockBufPair(t *testing.T, n int) (stripes, accepted []net.Conn) {
	t.Helper()
	s := startServer(t)
	s.SetSockBuf(n)
	c, err := NewClient(ClientConfig{Addr: s.Addr(), Bytes: xfer.Unbounded, Shaper: &Shaper{Rate: 4e6}, SockBuf: n})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	for i := 0; i < 2; i++ {
		if _, err := c.Run(context.Background(), xfer.Params{NC: 2, NP: 1}, 0.2); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	stripes = append(stripes, c.pool...)
	c.mu.Unlock()
	s.mu.Lock()
	for conn := range s.conns {
		accepted = append(accepted, conn)
	}
	s.mu.Unlock()
	if len(stripes) == 0 || len(accepted) == 0 {
		t.Fatalf("after a warm epoch: %d pooled stripes, %d accepted connections", len(stripes), len(accepted))
	}
	return stripes, accepted
}

// TestSockBufSizesBothEnds: ClientConfig.SockBuf sizes the send buffer
// of every pooled data stripe and Server.SetSockBuf the receive buffer
// of every accepted connection — Linux reports the doubled value it
// books — while connections without the setting read something else.
func TestSockBufSizesBothEnds(t *testing.T) {
	const n = 256 << 10
	if sysctlInt(t, "/proc/sys/net/core/wmem_max") < n || sysctlInt(t, "/proc/sys/net/core/rmem_max") < n {
		t.Skipf("net.core.{r,w}mem_max below %d: the kernel would clamp the setting", n)
	}
	stripes, accepted := sockBufPair(t, n)
	for _, conn := range stripes {
		if got := sockOpt(t, conn, syscall.SO_SNDBUF); got != 2*n {
			t.Errorf("client stripe SO_SNDBUF = %d, want %d", got, 2*n)
		}
	}
	for _, conn := range accepted {
		if got := sockOpt(t, conn, syscall.SO_RCVBUF); got != 2*n {
			t.Errorf("server connection SO_RCVBUF = %d, want %d", got, 2*n)
		}
	}

	stripes, accepted = sockBufPair(t, 0)
	if got := sockOpt(t, stripes[0], syscall.SO_SNDBUF); got == 2*n {
		t.Errorf("unsized client stripe SO_SNDBUF = %d, the sized value", got)
	}
	if got := sockOpt(t, accepted[0], syscall.SO_RCVBUF); got == 2*n {
		t.Errorf("unsized server connection SO_RCVBUF = %d, the sized value", got)
	}
}
