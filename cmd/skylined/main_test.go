package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerTimeouts: the server must bound how long a client may
// take to send its request header and how long an idle keep-alive
// connection stays open.
func TestHTTPServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	hs := newHTTPServer("127.0.0.1:0", h)
	if hs.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0", hs.IdleTimeout)
	}
	if hs.Addr != "127.0.0.1:0" || hs.Handler != h {
		t.Errorf("server does not carry the given address and handler")
	}
}
