package obs

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestHTTPServerDropsStalledClient: a client that connects, sends half
// a request line and goes quiet is disconnected once the header timeout
// passes, instead of holding its goroutine and descriptor for as long
// as the daemon lives. The test shortens the timeout on the server value
// it is handed; the limits themselves must all be set.
func TestHTTPServerDropsStalledClient(t *testing.T) {
	srv := NewHTTPServer(NewObserver(ObserverConfig{}).Handler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 || srv.MaxHeaderBytes <= 0 {
		t.Fatalf("NewHTTPServer left a limit unset: header %v, read %v, idle %v, header bytes %d",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout, srv.MaxHeaderBytes)
	}
	srv.ReadHeaderTimeout = 50 * time.Millisecond

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-served; err != http.ErrServerClosed {
			t.Errorf("Serve returned %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metr"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server may answer 408 before it hangs up or just hang up;
	// either way the read side reaches EOF long before our deadline.
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("the server kept a stalled connection open: %v", err)
	}
}
