package main

import (
	"net/http"
	"testing"
)

// TestNewServerBounds pins farosd's connection bounds: header reads and
// idle keep-alives are bounded, while whole-request read and write
// deadlines stay off so SSE streams and large trace uploads are not cut.
func TestNewServerBounds(t *testing.T) {
	srv := newServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != serverReadHeaderTimeout || srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, serverReadHeaderTimeout)
	}
	if srv.IdleTimeout != serverIdleTimeout || srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", srv.IdleTimeout, serverIdleTimeout)
	}
	if srv.ReadTimeout != 0 {
		t.Errorf("ReadTimeout = %v, want 0 (would cut large /traces uploads)", srv.ReadTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0 (would cut the /events SSE stream)", srv.WriteTimeout)
	}
}
