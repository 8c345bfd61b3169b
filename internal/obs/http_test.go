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

// TestEndpointCloseDrainsRequestInFlight: a scrape the server is still
// answering when the process calls Close gets its whole 200, not a
// connection cut mid-body, and Close returns only once it has.
func TestEndpointCloseDrainsRequestInFlight(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const body = "first half\nsecond half\n"
	inHandler, release := make(chan struct{}), make(chan struct{})
	srv := NewHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body[:len(body)/2])
		w.(http.Flusher).Flush()
		close(inHandler)
		<-release
		io.WriteString(w, body[len(body)/2:])
	}))
	go func() { _ = srv.Serve(ln) }()
	ep := &Endpoint{ln: ln, srv: srv}

	resp, err := http.Get("http://" + ep.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	<-inHandler

	closed := make(chan error, 1)
	go func() { closed <- ep.Close() }()
	// Close is under way once the listener refuses new connections.
	for deadline := time.Now().Add(10 * time.Second); ; {
		conn, err := net.Dial("tcp", ep.Addr())
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("Close never closed the listener")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v with a request still in flight", err)
	default:
	}
	close(release)

	got, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK || string(got) != body {
		t.Fatalf("in-flight request got status %d, body %q, err %v; want a complete 200 %q", resp.StatusCode, got, err, body)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
}
