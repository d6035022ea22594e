package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestServerTimeouts pins the listener configuration: header and whole-
// request read timeouts set, the read timeout long enough for a maximum-
// size upload at 128 KiB/s, and no write timeout (generate streams are
// long-lived).
func TestServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadTimeout != readTimeout {
		t.Errorf("read timeouts %v/%v, want %v/%v", srv.ReadHeaderTimeout, srv.ReadTimeout, readHeaderTimeout, readTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout %v would cut generate streams", srv.WriteTimeout)
	}
	if upload := time.Duration(serve.DefaultMaxUploadBytes/(128<<10)) * time.Second; readTimeout < upload {
		t.Errorf("readTimeout %v shorter than a %d-byte upload at 128 KiB/s (%v)", readTimeout, serve.DefaultMaxUploadBytes, upload)
	}
}

// TestStalledHeadersDisconnected: a client that stops mid-headers is
// disconnected by the header timeout, while a prompt client on the same
// listener is served. The timeout is shortened from its production value
// so the test runs fast; the server is otherwise the one runServe builds.
func TestStalledHeadersDisconnected(t *testing.T) {
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = newHTTPServer(serve.NewServer(serve.Config{}).Handler())
	ts.Config.ReadHeaderTimeout = 200 * time.Millisecond
	ts.Start()
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /tables?name=Stall HTTP/1.1\r\nHost: pythia\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server may answer 408 before closing; either way the read must
	// end in EOF, not in the client's own deadline.
	got, err := io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("stalled client still connected after %v", time.Since(start))
	}
	if err != nil {
		t.Fatalf("stalled client: %v", err)
	}
	if len(got) > 0 && !strings.HasPrefix(string(got), "HTTP/1.1 408 ") {
		t.Errorf("stalled client got %q, want nothing or a 408", got)
	}
}
